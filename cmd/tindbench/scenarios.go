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

// benchConfig is the benchmark matrix: which corpus sizes to run and how
// much work each scenario does. Everything that influences the measured
// work is seeded, so a (config, seed) pair names a reproducible run.
type benchConfig struct {
	Sizes       []int
	Seed        int64
	Horizon     int
	Queries     int
	TopKQueries int
	K           int
	Eps         float64
	Delta       int
	Repeat      int
	AllPairsMax int
	Shards      int
}

// obsKeepPrefixes limits the per-scenario registry diff to the metric
// families that describe pipeline work — funnels, fill ratios, pruning
// power, persist volume and GC activity — keeping the report readable.
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
		Horizon:    cfg.Horizon,
		Sizes:      cfg.Sizes,
		Shards:     cfg.Shards,
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

// runSize runs every scenario of one corpus size. Kept in sync with
// scenarioNames — TestScenarioNamesMatchRun pins the correspondence.
func (b *bench) runSize(n int) ([]Scenario, error) {
	cfg := b.cfg
	var out []Scenario
	add := func(sc Scenario, err error) error {
		if err != nil {
			return err
		}
		out = append(out, sc)
		fmt.Fprintf(b.log, "tindbench: %-24s %14.1f ns/op  (%d ops, peak heap %.1f MB)\n",
			sc.Name, sc.NsPerOp, sc.Ops, float64(sc.PeakHeapBytes)/(1<<20))
		return nil
	}

	var corpus *datagen.Corpus
	err := add(b.scenario(fmt.Sprintf("datagen/%d", n), 1, func() error {
		c, err := datagen.Generate(datagen.Config{
			Seed: cfg.Seed, Attributes: n, Horizon: timeline.Time(cfg.Horizon),
		})
		corpus = c
		return err
	}))
	if err != nil {
		return nil, err
	}
	ds := corpus.Dataset
	p := core.Params{Epsilon: cfg.Eps, Delta: timeline.Time(cfg.Delta), Weight: timeline.Uniform(ds.Horizon())}

	opt := index.DefaultOptions(ds.Horizon())
	opt.Params = p
	opt.Reverse = true
	opt.Seed = cfg.Seed

	var idx *index.Index
	err = add(b.scenario(fmt.Sprintf("index_build/%d", n), 1, func() error {
		var err error
		idx, err = index.Build(ds, opt)
		return err
	}))
	if err != nil {
		return nil, err
	}

	// The sharded build runs the same corpus through shard.Build with the
	// per-shard slice budget PartitionOptions derives from the monolith's
	// — the apples-to-apples scale-out comparison against index_build.
	var sx *shard.ShardedIndex
	err = add(b.scenario(fmt.Sprintf("shard_build/%d", n), 1, func() error {
		var err error
		sx, err = shard.Build(ds, shard.Options{
			Shards: cfg.Shards, Seed: cfg.Seed, Index: shard.PartitionOptions(opt, cfg.Shards),
		})
		return err
	}))
	if err != nil {
		return nil, err
	}

	// The query sample is drawn from a seed derived from (seed, size), so
	// it is stable across runs and independent of the other sizes.
	rng := rand.New(rand.NewSource(cfg.Seed<<16 + int64(n)))
	qids := rng.Perm(ds.Len())
	nq := min(cfg.Queries, len(qids))
	ctx := context.Background()

	runQueries := func(mode index.Mode, ids []int, o index.QueryOptions) func() error {
		return func() error {
			for _, id := range ids {
				o.Mode = mode
				if _, err := idx.Query(ctx, ds.Attr(history.AttrID(id)), o); err != nil {
					return err
				}
			}
			return nil
		}
	}
	err = add(b.scenario(fmt.Sprintf("query/forward/%d", n), int64(nq),
		runQueries(index.ModeForward, qids[:nq], index.QueryOptions{Params: p})))
	if err != nil {
		return nil, err
	}
	err = add(b.scenario(fmt.Sprintf("query/reverse/%d", n), int64(nq),
		runQueries(index.ModeReverse, qids[:nq], index.QueryOptions{Params: p})))
	if err != nil {
		return nil, err
	}
	// A reverse query above the index's ε and δ, which neither M_R nor the
	// slices may serve: the weighted prefix index generates its candidates.
	relaxed := core.Params{Epsilon: relaxedEps, Delta: relaxedDelta, Weight: p.Weight}
	err = add(b.scenario(fmt.Sprintf("query/relaxed/%d", n), int64(nq),
		runQueries(index.ModeReverse, qids[:nq], index.QueryOptions{Params: relaxed})))
	if err != nil {
		return nil, err
	}

	// Batched execution of the same seeded workload: one QueryBatch call
	// services the whole query set, so ns/op and — above all — allocs/op
	// are directly comparable to the per-query scenarios; the gap is what
	// the batch API shares (one lock acquisition, the workers).
	batchFor := func(mode index.Mode, ids []int, o index.QueryOptions) []index.BatchQuery {
		batch := make([]index.BatchQuery, len(ids))
		for i, id := range ids {
			bo := o
			bo.Mode = mode
			batch[i] = index.BatchQuery{ByID: true, ID: history.AttrID(id), Options: bo}
		}
		return batch
	}
	runBatch := func(eng interface {
		QueryBatch(context.Context, []index.BatchQuery, index.BatchOptions) ([]index.Result, error)
	}, mode index.Mode, ids []int, o index.QueryOptions) func() error {
		return func() error {
			_, err := eng.QueryBatch(ctx, batchFor(mode, ids, o), index.BatchOptions{})
			return err
		}
	}
	err = add(b.scenario(fmt.Sprintf("query_batch/forward/%d", n), int64(nq),
		runBatch(idx, index.ModeForward, qids[:nq], index.QueryOptions{Params: p})))
	if err != nil {
		return nil, err
	}
	err = add(b.scenario(fmt.Sprintf("query_batch/reverse/%d", n), int64(nq),
		runBatch(idx, index.ModeReverse, qids[:nq], index.QueryOptions{Params: p})))
	if err != nil {
		return nil, err
	}
	if cfg.TopKQueries > 0 {
		nt := min(cfg.TopKQueries, len(qids))
		err = add(b.scenario(fmt.Sprintf("query/topk/%d", n), int64(nt),
			runQueries(index.ModeTopK, qids[:nt], index.QueryOptions{
				Params: core.Params{Delta: p.Delta, Weight: p.Weight}, K: cfg.K,
			})))
		if err != nil {
			return nil, err
		}
	}

	runShardQueries := func(mode index.Mode, ids []int, o index.QueryOptions) func() error {
		return func() error {
			for _, id := range ids {
				o.Mode = mode
				if _, err := sx.Query(ctx, ds.Attr(history.AttrID(id)), o); err != nil {
					return err
				}
			}
			return nil
		}
	}
	err = add(b.scenario(fmt.Sprintf("shard_query/forward/%d", n), int64(nq),
		runShardQueries(index.ModeForward, qids[:nq], index.QueryOptions{Params: p})))
	if err != nil {
		return nil, err
	}
	err = add(b.scenario(fmt.Sprintf("shard_query/reverse/%d", n), int64(nq),
		runShardQueries(index.ModeReverse, qids[:nq], index.QueryOptions{Params: p})))
	if err != nil {
		return nil, err
	}
	err = add(b.scenario(fmt.Sprintf("shard_query/relaxed/%d", n), int64(nq),
		runShardQueries(index.ModeReverse, qids[:nq], index.QueryOptions{Params: relaxed})))
	if err != nil {
		return nil, err
	}
	err = add(b.scenario(fmt.Sprintf("shard_query_batch/forward/%d", n), int64(nq),
		runBatch(sx, index.ModeForward, qids[:nq], index.QueryOptions{Params: p})))
	if err != nil {
		return nil, err
	}

	if cfg.AllPairsMax > 0 && n <= cfg.AllPairsMax {
		err = add(b.scenario(fmt.Sprintf("allpairs/%d", n), 1, func() error {
			_, err := idx.AllPairsContext(ctx, p, 0)
			return err
		}))
		if err != nil {
			return nil, err
		}
	}

	err = add(b.scenario(fmt.Sprintf("persist/roundtrip/%d", n), 1, func() error {
		var buf bytes.Buffer
		if err := persist.Write(ds, &buf); err != nil {
			return err
		}
		_, err := persist.Read(bytes.NewReader(buf.Bytes()))
		return err
	}))
	if err != nil {
		return nil, err
	}

	// reslice: an idempotent refresh of half the attributes (same horizon,
	// no data change — so every repetition does identical work), then one
	// Reslice pass that re-selects slices and refills them. The unchanged
	// horizon pins the pass to the build's slice selection, leaving the
	// index in its original state for whatever runs next.
	half := make([]history.AttrID, ds.Len()/2)
	for i := range half {
		half[i] = history.AttrID(i * 2)
	}
	err = add(b.scenario(fmt.Sprintf("reslice/%d", n), 1, func() error {
		if err := idx.Refresh(half, ds.Horizon()); err != nil {
			return err
		}
		_, err := idx.Reslice()
		return err
	}))
	if err != nil {
		return nil, err
	}

	// refresh_ingest: live delta batches through the WAL-backed ingester
	// into the sharded refresh — the serving-side maintenance path
	// (validate → WAL append → apply). Runs last within a size: it evolves
	// the dataset, which must not leak into the scenarios above. The WAL
	// runs unsynced so the numbers measure the pipeline, not the disk.
	feed := newIngestFeed(ds)
	perRound := min(32, ds.Len())
	err = add(b.scenario(fmt.Sprintf("refresh_ingest/%d", n), int64(ingestRounds*(1+perRound)), func() error {
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
	}))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// relaxedEps and relaxedDelta (days) parameterize the */relaxed scenarios:
// the relaxed reverse query of the serving benchmark, above the default
// index parameters in both dimensions.
const (
	relaxedEps   = 15
	relaxedDelta = 30
)

// ingestRounds is the number of delta batches the refresh_ingest
// scenario submits per repetition.
const ingestRounds = 6

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

// scenarioNames returns the scenario set a config produces, in run
// order, without running anything — the contract behind "two runs with
// the same flags produce identical scenario sets".
func scenarioNames(cfg benchConfig) []string {
	var names []string
	for _, n := range cfg.Sizes {
		names = append(names,
			fmt.Sprintf("datagen/%d", n),
			fmt.Sprintf("index_build/%d", n),
			fmt.Sprintf("shard_build/%d", n),
			fmt.Sprintf("query/forward/%d", n),
			fmt.Sprintf("query/reverse/%d", n),
			fmt.Sprintf("query/relaxed/%d", n),
			fmt.Sprintf("query_batch/forward/%d", n),
			fmt.Sprintf("query_batch/reverse/%d", n),
		)
		if cfg.TopKQueries > 0 {
			names = append(names, fmt.Sprintf("query/topk/%d", n))
		}
		names = append(names,
			fmt.Sprintf("shard_query/forward/%d", n),
			fmt.Sprintf("shard_query/reverse/%d", n),
			fmt.Sprintf("shard_query/relaxed/%d", n),
			fmt.Sprintf("shard_query_batch/forward/%d", n),
		)
		if cfg.AllPairsMax > 0 && n <= cfg.AllPairsMax {
			names = append(names, fmt.Sprintf("allpairs/%d", n))
		}
		names = append(names,
			fmt.Sprintf("persist/roundtrip/%d", n),
			fmt.Sprintf("reslice/%d", n),
			fmt.Sprintf("refresh_ingest/%d", n),
		)
	}
	return names
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
