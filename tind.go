// Package tind discovers temporal inclusion dependencies (tINDs) in
// versioned table data, implementing "Efficient Discovery of Temporal
// Inclusion Dependencies in Wikipedia Tables" (EDBT 2024).
//
// A temporal inclusion dependency Q ⊆_{w,ε,δ} A states that, over the
// observed history, the value set of attribute Q is contained in that of
// attribute A — tolerating violations of total weight ε and temporal
// shifts of up to δ days (Definition 3.6 of the paper). Strict, ε-relaxed
// and (ε,δ)-relaxed tINDs are special cases.
//
// # Quick start
//
//	ds := tind.NewDataset(horizon)            // horizon in days
//	b := tind.NewBuilder(tind.Meta{Page: "List of games", Column: "Game"})
//	b.Observe(0, ds.Dict().InternAll([]string{"Red", "Blue"}))
//	b.Observe(250, ds.Dict().InternAll([]string{"Red", "Blue", "Gold"}))
//	h, _ := b.Build(horizon)
//	ds.Add(h)
//	// ... add more attributes ...
//
//	idx, _ := tind.BuildIndex(ds, tind.DefaultOptions(horizon))
//	res, _ := idx.Query(ctx, h, tind.QueryOptions{
//		Mode: tind.ModeForward, Params: tind.DefaultParams(horizon),
//	})
//	for _, id := range res.IDs {
//		fmt.Println(ds.Attr(id).Meta())
//	}
//
// Many queries against the same index are cheapest through QueryBatch,
// which runs them on a few workers under one read lock and recycles its
// scratch memory:
//
//	results, _ := idx.QueryBatch(ctx, []tind.BatchQuery{
//		{Query: h, Options: tind.QueryOptions{Mode: tind.ModeForward, Params: p}},
//		{Query: h2, Options: tind.QueryOptions{Mode: tind.ModeReverse, Params: p}},
//	}, tind.BatchOptions{})
//
// The package also exposes the substrates the paper's evaluation needs: a
// wikitext table parser and revision matcher (ParseTables, NewExtractor),
// the preprocessing pipeline of §5.1 (Preprocess), the MANY baselines
// (NewStaticMANY, NewKMany), a ground-truth corpus generator
// (GenerateCorpus) and the genuineness evaluation of §5.5.
package tind

import (
	"io"
	"io/fs"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/datagen"
	"tind/internal/eval"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/ingest"
	"tind/internal/many"
	"tind/internal/obs"
	"tind/internal/opendata"
	"tind/internal/persist"
	"tind/internal/preprocess"
	"tind/internal/shard"
	"tind/internal/timeline"
	"tind/internal/values"
	"tind/internal/wal"
	"tind/internal/wiki"
)

// Temporal model (package timeline).
type (
	// Time is a day index into the observation period.
	Time = timeline.Time
	// Interval is a half-open interval of days.
	Interval = timeline.Interval
	// WeightFunc assigns importance weights to timestamps.
	WeightFunc = timeline.WeightFunc
	// Constant is the uniform weight function family.
	Constant = timeline.Constant
	// ExponentialDecay weights recent timestamps higher (Equation 4).
	ExponentialDecay = timeline.ExponentialDecay
	// LinearDecay interpolates weights linearly over the horizon.
	LinearDecay = timeline.LinearDecay
	// PrefixSum wraps arbitrary per-day weights with O(1) interval sums.
	PrefixSum = timeline.PrefixSum
)

// NewInterval returns the half-open interval [start, end).
func NewInterval(start, end Time) Interval { return timeline.NewInterval(start, end) }

// Uniform returns the paper's default weighting w ≡ 1 (ε in days).
func Uniform(n Time) Constant { return timeline.Uniform(n) }

// Relative returns w ≡ 1/n, expressing ε as a share of timestamps.
func Relative(n Time) Constant { return timeline.Relative(n) }

// NewExponentialDecay returns w(t) = a^(n−t) with a ∈ (0,1).
func NewExponentialDecay(n Time, a float64) (ExponentialDecay, error) {
	return timeline.NewExponentialDecay(n, a)
}

// NewPrefixSum wraps explicit per-day weights.
func NewPrefixSum(weights []float64) (*PrefixSum, error) { return timeline.NewPrefixSum(weights) }

// Values and attribute histories (packages values, history).
type (
	// Value is an interned cell value.
	Value = values.Value
	// ValueSet is a sorted set of interned values.
	ValueSet = values.Set
	// Dictionary interns cell value strings.
	Dictionary = values.Dictionary
	// Meta is an attribute's provenance (page/table/column).
	Meta = history.Meta
	// Version is one state of an attribute's value set.
	Version = history.Version
	// History is an attribute's full version history.
	History = history.History
	// Builder accumulates observations into a History.
	Builder = history.Builder
	// Dataset is the attribute collection under analysis.
	Dataset = history.Dataset
	// AttrID identifies an attribute within a Dataset.
	AttrID = history.AttrID
	// DatasetStats summarizes a dataset (§5.1-style corpus statistics).
	DatasetStats = history.Stats
)

// NewDataset returns an empty dataset over the given horizon (days).
func NewDataset(horizon Time) *Dataset { return history.NewDataset(horizon) }

// NewBuilder returns a history builder for one attribute.
func NewBuilder(meta Meta) *Builder { return history.NewBuilder(meta) }

// NewHistory constructs a history from pre-sorted versions.
func NewHistory(meta Meta, versions []Version, end Time) (*History, error) {
	return history.New(meta, versions, end)
}

// tIND semantics (package core).
type (
	// Params fixes a tIND relaxation (ε, δ, w).
	Params = core.Params
)

// Strict returns strict-tIND parameters (Definition 3.2).
func Strict(n Time) Params { return core.Strict(n) }

// EpsilonRelaxed returns ε-relaxed parameters (Definition 3.3).
func EpsilonRelaxed(share float64, n Time) Params { return core.EpsilonRelaxed(share, n) }

// EpsilonDelta returns (ε,δ)-relaxed parameters (Definition 3.5).
func EpsilonDelta(share float64, delta, n Time) Params {
	return core.EpsilonDelta(share, delta, n)
}

// DefaultParams returns the paper's default setting: ε = 3 days under
// uniform weights, δ = 7 days (§5.1).
func DefaultParams(n Time) Params { return core.DefaultDays(n) }

// Holds reports whether Q ⊆_{w,ε,δ} A (Algorithm 2).
func Holds(q, a *History, p Params) bool { return core.Holds(q, a, p) }

// ViolationWeight returns the exact summed violation weight of Q ⊆ A.
func ViolationWeight(q, a *History, p Params) float64 { return core.ViolationWeight(q, a, p) }

// StaticIND reports Q[t] ⊆ A[t] (Definition 3.1).
func StaticIND(q, a *History, t Time) bool { return core.StaticIND(q, a, t) }

// DeltaContained reports Q[t] ⊆ A[[t−δ, t+δ]] (Definition 3.4).
func DeltaContained(q, a *History, t, delta Time) bool {
	return core.DeltaContained(q, a, t, delta)
}

// HoldsPartial reports whether Q is σ-partially contained in A under the
// relaxation p: at every timestamp (up to violation weight ε) at least
// sigma of Q's values must be δ-contained in A. This implements the
// partial-containment extension the paper defers to future work (§6)
// as a diagnostic: it checks the definition timestamp by timestamp, and
// no index query serves it. sigma = 1 coincides with Holds.
func HoldsPartial(q, a *History, p Params, sigma float64) (bool, error) {
	return core.HoldsPartial(q, a, p, sigma)
}

// Violation is one maximal violated interval reported by Explain.
type Violation = core.Violation

// Explain returns the violated intervals of Q ⊆_{w,·,δ} A in time order —
// the diagnostic behind the REPL's "why" command and tindserve's /explain.
func Explain(q, a *History, p Params) []Violation { return core.Explain(q, a, p) }

// RequiredValues returns R_{ε,w}(Q): values any valid right-hand side must
// contain (Equation 7).
func RequiredValues(q *History, epsilon float64, w WeightFunc) ValueSet {
	return core.RequiredValues(q, epsilon, w)
}

// Index (package index) and baselines (package many).
type (
	// BloomParams is the Bloom filter shape (m bits, k hashes).
	BloomParams = bloom.Params
	// IndexOptions configures index construction.
	IndexOptions = index.Options
	// Index answers tIND search and reverse search queries.
	Index = index.Index
	// QueryMode selects the direction of an Index.Query call.
	QueryMode = index.Mode
	// QueryOptions parameterizes one Index.Query call.
	QueryOptions = index.QueryOptions
	// BatchQuery is one sub-query of an Index.QueryBatch or
	// ShardedIndex.QueryBatch call.
	BatchQuery = index.BatchQuery
	// BatchOptions configures one QueryBatch call.
	BatchOptions = index.BatchOptions
	// SearchResult is a query answer with statistics.
	SearchResult = index.Result
	// QueryStats records how a query was answered.
	QueryStats = index.QueryStats
	// QueryTimings is the per-phase latency breakdown in QueryStats.
	QueryTimings = index.Timings
	// QueryTraceSpan is one recorded query phase (QueryStats.Trace).
	QueryTraceSpan = index.TraceSpan
	// SliceStrategy selects time-slice intervals.
	SliceStrategy = index.SliceStrategy
	// Pair is a discovered tIND (LHS ⊆ RHS).
	Pair = index.Pair
	// StaticMANY is the static-IND baseline on one snapshot.
	StaticMANY = many.Static
	// KMany is the paper's k-snapshot baseline.
	KMany = many.KMany
)

// Slice selection strategies (§4.4.2).
const (
	RandomSlices         = index.Random
	WeightedRandomSlices = index.WeightedRandom
)

// Query modes: Index.Query(ctx, q, QueryOptions{Mode: ...}) is the one
// entry point; Index.Search and Index.Reverse are conveniences for it.
const (
	ModeForward = index.ModeForward
	ModeReverse = index.ModeReverse
	ModeTopK    = index.ModeTopK
)

// Typed query-abort errors. Context-aware queries (Query, QueryBatch,
// AllPairsContext on Index) return an error
// matching ErrQueryCanceled or ErrQueryDeadlineExceeded via errors.Is when
// the caller's context ends mid-query; the wrapped context.Canceled /
// context.DeadlineExceeded also still match.
var (
	ErrQueryCanceled         = index.ErrCanceled
	ErrQueryDeadlineExceeded = index.ErrDeadlineExceeded
)

// ErrInvalidIndexOptions matches (via errors.Is) every rejection of
// malformed IndexOptions by BuildIndex or IndexOptions.Validate, and of
// malformed QueryOptions by Index.Query.
var ErrInvalidIndexOptions = index.ErrInvalidOptions

// WriteMetrics writes every metric collected by this process — index
// build and query-phase histograms, parse and persist throughput — in the
// Prometheus text exposition format. tindserve's /metrics endpoint serves
// exactly this, together with the state gauges of the index it serves
// (tind_index_bytes, Bloom fill ratios), which a build does not set: a
// process that serves no index exposes none of them.
func WriteMetrics(w io.Writer) error { return obs.Default().WritePrometheus(w) }

// BuildIndex constructs the tIND index over a dataset (Section 4.2).
func BuildIndex(ds *Dataset, opt IndexOptions) (*Index, error) { return index.Build(ds, opt) }

// DefaultOptions is the search configuration: the paper's m=4096 and
// random slices, at k=4 slices; the slice matrices and M_R are folded to
// the width their fill asks for (index.Options.Bloom).
func DefaultOptions(n Time) IndexOptions { return index.DefaultOptions(n) }

// DefaultReverseOptions is the paper's best reverse-search configuration
// (m=512, k=2, weighted-random slices).
func DefaultReverseOptions(n Time) IndexOptions { return index.DefaultReverseOptions(n) }

// NewStaticMANY builds the static MANY baseline at a snapshot.
func NewStaticMANY(ds *Dataset, t Time, bp BloomParams) (*StaticMANY, error) {
	return many.NewStatic(ds, t, bp)
}

// NewKMany builds the k-snapshot baseline.
func NewKMany(ds *Dataset, k int, delta Time, bp BloomParams, seed int64) (*KMany, error) {
	return many.NewKMany(ds, k, delta, bp, seed)
}

// Sharded scatter-gather serving (package shard).
type (
	// ShardedIndex serves the Index query contract over N hash-partitioned
	// shards: forward/reverse results union, top-k rankings k-way merge,
	// all-pairs discovery sends blocks of forward queries through the
	// batch scatter. Answers are exact —
	// identical to a single Index over the same corpus — while Refresh
	// locks only the shards owning changed attributes.
	ShardedIndex = shard.ShardedIndex
	// ShardOptions configures a sharded build (shard count, partitioning
	// seed, per-shard IndexOptions).
	ShardOptions = shard.Options
)

// BuildShardedIndex partitions ds into opt.Shards independent indexes
// (deterministically by AttrID under opt.Seed) and builds them
// concurrently.
func BuildShardedIndex(ds *Dataset, opt ShardOptions) (*ShardedIndex, error) {
	return shard.Build(ds, opt)
}

// PartitionShardOptions derives the per-shard index configuration from a
// monolithic one by dividing the slice budget across shards, keeping the
// total slice work roughly constant as N grows.
func PartitionShardOptions(mono IndexOptions, shards int) IndexOptions {
	return shard.PartitionOptions(mono, shards)
}

// Durable live ingestion (packages wal and ingest, DESIGN.md §10).
type (
	// WAL is an append-only CRC-framed write-ahead log of history deltas.
	// Open truncates a torn tail (the crash-during-write artifact) and
	// fails on interior corruption.
	WAL = wal.Log
	// WALOptions configures a log (fsync policy).
	WALOptions = wal.Options
	// WALRecord is one history delta: an append, an observation-window
	// extension or a horizon extension. Values travel as raw strings, so
	// a log replays against any snapshot of the same corpus.
	WALRecord = wal.Record
	// WALRecordType discriminates WALRecord.
	WALRecordType = wal.Type
	// WALSyncPolicy selects fsync-per-append or no explicit fsync.
	WALSyncPolicy = wal.SyncPolicy
	// Ingester runs the durable write path: atomic batch validation,
	// WAL-then-acknowledge Submit, dirty-count/dirty-age apply triggers
	// onto a refreshable engine, periodic snapshots.
	Ingester = ingest.Ingester
	// IngestEngine is the serving engine an Ingester folds deltas into;
	// both Index and ShardedIndex satisfy it via RefreshWith.
	IngestEngine = ingest.Engine
	// IngestOptions configures an Ingester's triggers and snapshots.
	IngestOptions = ingest.Options
	// IngestSnapshotConfig configures periodic crash-recovery snapshots.
	IngestSnapshotConfig = ingest.SnapshotConfig
	// IngestStats is an Ingester's observable state, including the
	// bounded-staleness gauges (pending records, oldest pending age,
	// WAL lag).
	IngestStats = ingest.Stats
)

// WAL record types and fsync policies.
const (
	WALAppend            = wal.TypeAppend
	WALExtendObservation = wal.TypeExtendObservation
	WALExtendHorizon     = wal.TypeExtendHorizon
	WALSyncAlways        = wal.SyncAlways
	WALSyncNever         = wal.SyncNever
)

// Ingestion sentinel errors: Submit returns an error wrapping
// ErrIngestRejected when a batch fails validation (the batch leaves no
// trace) and ErrIngestClosed after Close.
var (
	ErrIngestRejected = ingest.ErrRejected
	ErrIngestClosed   = ingest.ErrClosed
)

// OpenWAL opens (creating if absent) a write-ahead log, truncating a
// torn tail left by a crash.
func OpenWAL(path string, opt WALOptions) (*WAL, error) { return wal.Open(path, opt) }

// NewIngester wires the durable write path over eng (an Index or
// ShardedIndex serving ds). Call Start to run the background apply loop
// and Close to flush and stop it.
func NewIngester(eng IngestEngine, ds *Dataset, log *WAL, opt IngestOptions) *Ingester {
	return ingest.New(eng, ds, log, opt)
}

// ReplayWAL folds the log's records from byte offset from (0 = the whole
// log; the offset a snapshot covers to replay only the suffix) into
// ds, invoking progress (if non-nil) after each record. It returns the
// offset replayed to and the record count.
func ReplayWAL(ds *Dataset, log *WAL, from int64, progress func(replayed int, offset int64)) (int64, int, error) {
	return ingest.Replay(ds, log, from, progress)
}

// Wikipedia substrate (package wiki) and preprocessing (package preprocess).
type (
	// WikiRevision is one version of a wiki page.
	WikiRevision = wiki.Revision
	// WikiTable is a parsed wikitable.
	WikiTable = wiki.Table
	// Extractor matches tables/columns across revisions.
	Extractor = wiki.Extractor
	// AttributeRecord is an extracted column history.
	AttributeRecord = wiki.AttributeRecord
	// PreprocessConfig controls the §5.1 pipeline.
	PreprocessConfig = preprocess.Config
	// PreprocessReport counts pipeline decisions.
	PreprocessReport = preprocess.Report
)

// ParseTables extracts wikitables from wikitext.
func ParseTables(wikitext string) []WikiTable { return wiki.ParseTables(wikitext) }

// NewExtractor returns a revision-stream extractor.
func NewExtractor() *Extractor { return wiki.NewExtractor() }

// Preprocess runs the §5.1 pipeline over extracted records.
func Preprocess(recs []*AttributeRecord, cfg PreprocessConfig) (*Dataset, PreprocessReport, error) {
	return preprocess.Run(recs, cfg)
}

// Synthetic corpora and evaluation (packages datagen, eval).
type (
	// CorpusConfig parameterizes the synthetic corpus generator.
	CorpusConfig = datagen.Config
	// Corpus is a generated dataset with ground truth.
	Corpus = datagen.Corpus
	// Truth is the generator-side genuineness oracle.
	Truth = datagen.Truth
	// LabeledPair is one annotated static IND (§5.5).
	LabeledPair = eval.LabeledPair
	// PRPoint is a precision/recall measurement of one parametrization.
	PRPoint = eval.PRPoint
)

// GenerateCorpus builds a synthetic corpus with known ground truth.
func GenerateCorpus(cfg CorpusConfig) (*Corpus, error) { return datagen.Generate(cfg) }

// WriteDataset stores a dataset in the compact binary format.
func WriteDataset(ds *Dataset, w io.Writer) error { return persist.Write(ds, w) }

// ReadDataset loads a dataset written by WriteDataset.
func ReadDataset(r io.Reader) (*Dataset, error) { return persist.Read(r) }

// ParseDump streams a MediaWiki XML export, emitting one Revision per
// selected page revision (see cmd/wikiparse for the end-to-end converter).
func ParseDump(r io.Reader, opt DumpOptions, emit func(WikiRevision) error) error {
	return wiki.ParseDump(r, opt, emit)
}

// DumpOptions controls ParseDump.
type DumpOptions = wiki.DumpOptions

// LoadCSVSnapshots ingests a corpus of date-stamped CSV snapshot
// directories (the open-government-data setting of the paper's future
// work); feed the records to Preprocess.
func LoadCSVSnapshots(fsys fs.FS) ([]*AttributeRecord, error) {
	return opendata.LoadSnapshots(fsys)
}

// Ranked is a top-k search result (attribute plus exact violation weight).
type Ranked = index.Ranked

// SampleLabeled assembles the bucket-sampled labelled IND set of §5.5.
func SampleLabeled(ds *Dataset, truth *Truth, snap Time, perBucket int, seed int64) ([]LabeledPair, error) {
	return eval.SampleLabeled(ds, truth, snap, perBucket, seed)
}
