package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tind/internal/core"
	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/ingest"
	"tind/internal/obs"
	"tind/internal/persist"
	"tind/internal/shard"
	"tind/internal/timeline"
	"tind/internal/wal"
)

// The fixed workload. A run chooses only its corpus sizes, its seed and
// its repetitions; everything else that shapes the measured work is a
// constant here, so a report's (sizes, seed) names its work exactly.
const (
	horizonDays    = 1500                 // corpus horizon
	sampleQueries  = 160                  // forward/reverse/relaxed queries per size
	topKQueries    = 32                   // top-k queries per size
	topK           = 10                   // K of the top-k queries
	epsDays        = 3                    // ε of the index and the point queries
	deltaDays      = 7                    // δ of the index and the point queries
	relaxedEps     = 15                   // ε of the */relaxed queries, above the index's
	relaxedDelta   = 30                   // δ of the */relaxed queries, above the index's
	shardCount     = 4                    // partitions of the shard_* scenarios
	allPairsMax    = 2000                 // all-pairs runs only up to this corpus size
	ingestRounds   = 6                    // delta batches per refresh_ingest repetition
	ingestPerRound = 32                   // attributes each delta batch appends to, at most
	reslicePasses  = 4                    // Refresh+Reslice passes per reslice repetition
	minWall        = 2 * time.Millisecond // noise floor: faster runs are not wall-gated
)

// benchConfig is what varies between runs: the corpus sizes, the seed
// that feeds the corpora, the index and the query sample, and the
// repetitions per scenario.
type benchConfig struct {
	Sizes  []int
	Seed   int64
	Repeat int
}

// obsKeepPrefixes limits the per-scenario registry diff to the metric
// families that describe pipeline work — funnels, work counters, build
// times, persist volume and GC activity — keeping the report readable.
// The index state gauges (fill ratios, p(I)) are published by a server
// for the index it serves, never by a build, so no scenario moves them.
var obsKeepPrefixes = []string{
	"tind_query_", "tind_index_", "tind_persist_", "tind_allpairs_", "tind_shard_", "tind_ingest_", "tind_runtime_gc",
}

// bench carries the run-wide measurement state.
type bench struct {
	cfg     benchConfig
	sampler *obs.RuntimeSampler
	log     io.Writer
}

// runBench executes the whole matrix and assembles the report.
func runBench(cfg benchConfig, label string, log io.Writer) (*Report, error) {
	rep := &Report{
		Format:     reportFormat,
		Label:      label,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       cfg.Seed,
		Horizon:    horizonDays,
		Sizes:      cfg.Sizes,
		Shards:     shardCount,
	}
	b := &bench{cfg: cfg, sampler: obs.NewRuntimeSampler(obs.Default()), log: log}
	// The sampler's background ticks are what turns "peak heap" from a
	// single end-of-scenario reading into an actual high-water mark.
	stop := b.sampler.Start(5 * time.Millisecond)
	defer stop()
	for _, n := range cfg.Sizes {
		scs, err := b.runSize(n)
		if err != nil {
			return nil, fmt.Errorf("size %d: %w", n, err)
		}
		rep.Scenarios = append(rep.Scenarios, scs...)
	}
	return rep, nil
}

// runSize runs the scenario table of one corpus size, in order.
func (b *bench) runSize(n int) ([]Scenario, error) {
	var out []Scenario
	for _, st := range (&sizeRun{seed: b.cfg.Seed, n: n}).steps() {
		if st.setup != nil {
			st.setup()
		}
		sc, err := b.scenario(st.name, st.ops, st.run)
		if err != nil {
			return nil, err
		}
		if st.built != nil {
			bs := st.built()
			sc.IndexBytesPerAttr = bs.MemoryBytes / int64(max(1, bs.Attributes))
		}
		out = append(out, sc)
		fmt.Fprintf(b.log, "tindbench: %-24s %14.1f ns/op  (%d ops, peak heap %.1f MB)\n",
			sc.Name, sc.NsPerOp, sc.Ops, float64(sc.PeakHeapBytes)/(1<<20))
	}
	return out, nil
}

// scenarioNames returns the scenario set a config produces, in run
// order, without running anything — the contract behind "two runs with
// the same flags produce identical scenario sets".
func scenarioNames(cfg benchConfig) []string {
	var names []string
	for _, n := range cfg.Sizes {
		for _, st := range (&sizeRun{seed: cfg.Seed, n: n}).steps() {
			names = append(names, st.name)
		}
	}
	return names
}

// step is one scenario: its name, its op count, an optional untimed
// setup that runs once before the repetitions, and the timed work. A
// build step names the statistics of what it built, whose bytes per
// attribute its row records.
type step struct {
	name  string
	ops   int64
	setup func()
	run   func() error
	built func() index.BuildStats
}

// sizeRun is the state the steps of one corpus size share. A step reads
// what the steps before it filled in, so the table runs in order.
type sizeRun struct {
	seed int64
	n    int
	ds   *history.Dataset
	idx  *index.Index
	sx   *shard.ShardedIndex
	qids []int // the seeded query sample
}

// engine is the query surface the monolith and the sharded index share.
type engine interface {
	Query(context.Context, *history.History, index.QueryOptions) (index.Result, error)
	QueryBatch(context.Context, []index.BatchQuery, index.BatchOptions) ([]index.Result, error)
}

func (s *sizeRun) mono() engine    { return s.idx }
func (s *sizeRun) sharded() engine { return s.sx }

// steps is the scenario table of one corpus size. Building it runs
// nothing and allocates nothing in proportion to the size.
func (s *sizeRun) steps() []step {
	p := core.Params{Epsilon: epsDays, Delta: deltaDays, Weight: timeline.Uniform(horizonDays)}
	opt := index.DefaultOptions(horizonDays)
	opt.Params, opt.Reverse, opt.Seed = p, true, s.seed
	fwd := index.QueryOptions{Mode: index.ModeForward, Params: p}
	rev := index.QueryOptions{Mode: index.ModeReverse, Params: p}
	// A reverse query above the index's ε and δ, which neither M_R nor the
	// slices may serve: the weighted prefix index generates its candidates.
	relaxed := index.QueryOptions{Mode: index.ModeReverse,
		Params: core.Params{Epsilon: relaxedEps, Delta: relaxedDelta, Weight: p.Weight}}
	topkOpt := index.QueryOptions{Mode: index.ModeTopK, K: topK,
		Params: core.Params{Delta: p.Delta, Weight: p.Weight}}
	nq, nt := min(sampleQueries, s.n), min(topKQueries, s.n)
	// The query sample is drawn from a seed derived from (seed, size), so
	// it is stable across runs and independent of the other sizes.
	forward := s.queries("query/forward", s.mono, fwd, nq)
	forward.setup = func() {
		s.qids = rand.New(rand.NewSource(s.seed<<16 + int64(s.n))).Perm(s.ds.Len())
	}

	steps := []step{
		{name: "datagen", ops: 1, run: func() error {
			c, err := datagen.Generate(datagen.Config{Seed: s.seed, Attributes: s.n, Horizon: horizonDays})
			if err == nil {
				s.ds = c.Dataset
			}
			return err
		}},
		{name: "index_build", ops: 1, run: func() (err error) {
			s.idx, err = index.Build(s.ds, opt)
			return err
		}, built: func() index.BuildStats { return s.idx.Stats() }},
		// The sharded build runs the same corpus through shard.Build with
		// the per-shard slice budget PartitionOptions derives from the
		// monolith's — the apples-to-apples scale-out comparison against
		// index_build.
		{name: "shard_build", ops: 1, run: func() (err error) {
			s.sx, err = shard.Build(s.ds, shard.Options{
				Shards: shardCount, Seed: s.seed, Index: shard.PartitionOptions(opt, shardCount),
			})
			return err
		}, built: func() index.BuildStats { return s.sx.Stats() }},
		forward,
		s.queries("query/reverse", s.mono, rev, nq),
		s.queries("query/relaxed", s.mono, relaxed, nq),
		s.batch("query_batch/forward", s.mono, fwd, nq),
		s.batch("query_batch/reverse", s.mono, rev, nq),
		s.queries("query/topk", s.mono, topkOpt, nt),
		s.queries("shard_query/forward", s.sharded, fwd, nq),
		s.queries("shard_query/reverse", s.sharded, rev, nq),
		s.queries("shard_query/relaxed", s.sharded, relaxed, nq),
		s.batch("shard_query_batch/forward", s.sharded, fwd, nq),
	}
	if s.n <= allPairsMax {
		steps = append(steps, step{name: "allpairs", ops: 1, run: func() error {
			_, err := s.idx.AllPairsContext(context.Background(), p, 0)
			return err
		}})
	}

	// reslice: an idempotent refresh of half the attributes (same horizon,
	// no data change — so every pass does identical work), then one
	// Reslice pass that re-selects slices and refills them, reslicePasses
	// times per repetition, so ns/op averages over more than one pass. The
	// unchanged horizon pins each pass to the build's slice selection,
	// leaving the index in its original state for whatever runs next.
	var half []history.AttrID
	// refresh_ingest: live delta batches through the WAL-backed ingester
	// into the sharded refresh — the serving-side maintenance path
	// (validate → WAL append → apply). Runs last within a size: it evolves
	// the dataset, which must not leak into the scenarios above. The WAL
	// runs unsynced so the numbers measure the pipeline, not the disk.
	var feed *ingestFeed
	perRound := min(ingestPerRound, s.n)
	steps = append(steps,
		step{name: "persist/roundtrip", ops: 1, run: func() error {
			var buf bytes.Buffer
			if err := persist.Write(s.ds, &buf); err != nil {
				return err
			}
			_, err := persist.Read(bytes.NewReader(buf.Bytes()))
			return err
		}},
		step{name: "reslice", ops: reslicePasses,
			setup: func() {
				half = make([]history.AttrID, s.ds.Len()/2)
				for i := range half {
					half[i] = history.AttrID(i * 2)
				}
			},
			run: func() error {
				for range reslicePasses {
					if err := s.idx.Refresh(half, s.ds.Horizon()); err != nil {
						return err
					}
					if _, err := s.idx.Reslice(); err != nil {
						return err
					}
				}
				return nil
			}},
		step{name: "refresh_ingest", ops: int64(ingestRounds * (1 + perRound)),
			setup: func() { feed = newIngestFeed(s.ds) },
			run:   func() error { return ingestRun(s.sx, s.ds, feed, perRound) }},
	)
	for i := range steps {
		steps[i].name = fmt.Sprintf("%s/%d", steps[i].name, s.n)
	}
	return steps
}

// queries is a step that runs the first n sampled attributes through
// eng one query at a time.
func (s *sizeRun) queries(name string, eng func() engine, o index.QueryOptions, n int) step {
	return step{name: name, ops: int64(n), run: func() error {
		e := eng()
		for _, id := range s.qids[:n] {
			if _, err := e.Query(context.Background(), s.ds.Attr(history.AttrID(id)), o); err != nil {
				return err
			}
		}
		return nil
	}}
}

// batch is a step that runs the same sample as one QueryBatch call: ops
// equals the sample size, so ns/op and — above all — allocs/op compare
// directly with the per-query scenarios; the gap is what the batch API
// shares (one lock acquisition, the workers).
func (s *sizeRun) batch(name string, eng func() engine, o index.QueryOptions, n int) step {
	return step{name: name, ops: int64(n), run: func() error {
		batch := make([]index.BatchQuery, n)
		for i, id := range s.qids[:n] {
			batch[i] = index.BatchQuery{ByID: true, ID: history.AttrID(id), Options: o}
		}
		_, err := eng().QueryBatch(context.Background(), batch, index.BatchOptions{})
		return err
	}}
}

// ingestRun submits ingestRounds batches from feed through a fresh
// unsynced WAL into sx, then flushes them.
func ingestRun(sx *shard.ShardedIndex, ds *history.Dataset, feed *ingestFeed, perRound int) error {
	dir, err := os.MkdirTemp("", "tindbench-wal")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(filepath.Join(dir, "ingest.wal"), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return err
	}
	in := ingest.New(sx, ds, log, ingest.Options{MaxDirty: 1 << 30, MaxDirtyAge: time.Hour})
	for r := 0; r < ingestRounds; r++ {
		if err := in.Submit(feed.round(r, perRound)); err != nil {
			return err
		}
	}
	if err := in.Flush(); err != nil {
		return err
	}
	if err := in.Close(); err != nil {
		return err
	}
	return log.Close()
}

// ingestFeed produces valid delta batches against a client-side shadow
// of the evolving dataset state, like an external ingest client. State
// persists across repetitions so every batch stays valid as the dataset
// evolves.
type ingestFeed struct {
	horizon timeline.Time
	ends    []timeline.Time
	batch   int
}

func newIngestFeed(ds *history.Dataset) *ingestFeed {
	f := &ingestFeed{horizon: ds.Horizon(), ends: make([]timeline.Time, ds.Len())}
	for i := range f.ends {
		f.ends[i] = ds.Attr(history.AttrID(i)).ObservedUntil()
	}
	return f
}

func (f *ingestFeed) round(r, perRound int) []wal.Record {
	f.batch++
	f.horizon += 2
	recs := []wal.Record{{Type: wal.TypeExtendHorizon, Horizon: f.horizon}}
	for i := 0; i < perRound; i++ {
		a := history.AttrID((r*perRound + i) % len(f.ends))
		recs = append(recs, wal.Record{
			Type: wal.TypeAppend, Attr: a,
			Start: f.ends[a], End: f.horizon,
			Values: []string{fmt.Sprintf("ingest-%d-%d", f.batch, a)},
		})
		f.ends[a] = f.horizon
	}
	return recs
}

// scenario measures fn: wall time, allocation deltas, peak heap and the
// scenario-scoped obs diff. With Repeat > 1 the columns split by what
// they answer (DESIGN.md §7.3): the timing fields and the obs diff come
// from the fastest repetition — each repetition is measured in full, so
// the counters always describe exactly one execution — while the memory
// fields keep the worst repetition, because peak heap and allocation
// footprints are capacity questions and the fastest run is often also
// the one that happened to allocate least.
func (b *bench) scenario(name string, ops int64, fn func() error) (Scenario, error) {
	sc := Scenario{Name: name, Ops: ops}
	for rep := 0; rep < b.cfg.Repeat; rep++ {
		// Settle the heap so one scenario's garbage is not billed to the
		// next, and the peak watermark starts from a clean floor.
		runtime.GC()
		b.sampler.ResetPeak()
		b.sampler.Sample()
		before := obs.Default().Snapshot()
		var ms0 runtime.MemStats
		runtime.ReadMemStats(&ms0)

		start := time.Now()
		err := fn()
		wall := time.Since(start)
		if err != nil {
			return Scenario{}, fmt.Errorf("%s: %w", name, err)
		}

		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		b.sampler.Sample()

		if rep == 0 || wall.Nanoseconds() < sc.WallNs {
			sc.WallNs = wall.Nanoseconds()
			sc.NsPerOp = float64(wall.Nanoseconds()) / float64(ops)
			sc.Obs = obs.Default().Snapshot().Diff(before).FilterPrefix(obsKeepPrefixes...)
			// The gate reads values and counts only; bucket arrays made a
			// re-baseline a diff of thousands of lines.
			for i := range sc.Obs.Metrics {
				sc.Obs.Metrics[i].Buckets = nil
			}
		}
		if v := int64(ms1.TotalAlloc-ms0.TotalAlloc) / ops; v > sc.BytesPerOp {
			sc.BytesPerOp = v
		}
		if v := int64(ms1.Mallocs-ms0.Mallocs) / ops; v > sc.AllocsPerOp {
			sc.AllocsPerOp = v
		}
		if v := b.sampler.PeakHeapBytes(); v > sc.PeakHeapBytes {
			sc.PeakHeapBytes = v
		}
	}
	return sc, nil
}
