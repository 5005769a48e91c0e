package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tind/internal/bitmatrix"
	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/ingest"
	"tind/internal/persist"
	"tind/internal/router"
	"tind/internal/sem"
	"tind/internal/shard"
	"tind/internal/timeline"
	"tind/internal/wal"
)

// perLayer lists the per-layer metrics, `<package>.<metric>`. They come
// from the traced run only: client spans and /proc accounting around the
// real processes, then direct timed calls into each package's exported
// functions over the same corpus file and query stream. Counts marked
// exact repeat bit for bit under one seed.
var perLayer = []metricDef{
	{Name: "datagen.generate_s", Unit: "s", Better: "lower"},
	{Name: "persist.write_s", Unit: "s", Better: "lower"},
	{Name: "persist.read_s", Unit: "s", Better: "lower"},
	{Name: "persist.bytes_per_attr", Unit: "B", Better: "lower"}, // exact
	{Name: "bloom.fromset_ns", Unit: "ns", Better: "lower"},
	{Name: "bitmatrix.supersets_us", Unit: "us", Better: "lower"},
	{Name: "bitmatrix.subsets_us", Unit: "us", Better: "lower"},
	{Name: "bitmatrix.batch_row_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.violation_weight_genuine_us", Unit: "us", Better: "lower"},
	{Name: "core.violation_weight_random_us", Unit: "us", Better: "lower"},
	{Name: "core.required_values_us", Unit: "us", Better: "lower"},
	{Name: "index.build_s", Unit: "s", Better: "lower"},
	{Name: "index.build_mt_s", Unit: "s", Better: "lower"},
	{Name: "index.build_slices_s", Unit: "s", Better: "lower"},
	{Name: "index.build_mr_s", Unit: "s", Better: "lower"},
	{Name: "index.memory_mb", Unit: "MB", Better: "lower"},
	{Name: "index.fwd_us", Unit: "us", Better: "lower"},
	{Name: "index.fwd_mt_us", Unit: "us", Better: "lower"},
	{Name: "index.fwd_slice_us", Unit: "us", Better: "lower"},
	{Name: "index.fwd_subset_us", Unit: "us", Better: "lower"},
	{Name: "index.fwd_validate_us", Unit: "us", Better: "lower"},
	{Name: "index.rev_us", Unit: "us", Better: "lower"},
	{Name: "index.rev_mt_us", Unit: "us", Better: "lower"},
	{Name: "index.rev_slice_us", Unit: "us", Better: "lower"},
	{Name: "index.rev_subset_us", Unit: "us", Better: "lower"},
	{Name: "index.rev_validate_us", Unit: "us", Better: "lower"},
	{Name: "index.relaxed_us", Unit: "us", Better: "lower"},
	{Name: "index.relaxed_subset_us", Unit: "us", Better: "lower"},
	{Name: "index.topk_ms", Unit: "ms", Better: "lower"},
	{Name: "index.topk_validate_ms", Unit: "ms", Better: "lower"},
	{Name: "index.topk_rank_ms", Unit: "ms", Better: "lower"},
	{Name: "index.topk_exact_checks", Unit: "count", Better: "lower"}, // exact
	{Name: "index.fwd_candidates", Unit: "count", Better: "lower"},    // exact
	{Name: "index.rev_candidates", Unit: "count", Better: "lower"},    // exact
	{Name: "index.fwd_validated_per_result", Unit: "ratio", Better: "lower"},
	{Name: "index.batch32_us_per_entry", Unit: "us", Better: "lower"},
	{Name: "index.fwd_allocs", Unit: "count", Better: "lower"},
	{Name: "index.fwd_bytes", Unit: "B", Better: "lower"},
	{Name: "index.trace_tax_ratio", Unit: "ratio", Better: "lower"},
	{Name: "index.refresh_us_per_attr", Unit: "us", Better: "lower"},
	{Name: "index.reslice_s", Unit: "s", Better: "lower"},
	{Name: "index.allpairs_s", Unit: "s", Better: "lower"},
	{Name: "index.allpairs_pairs", Unit: "count", Better: "higher"}, // exact
	{Name: "shard.build_s", Unit: "s", Better: "lower"},
	{Name: "shard.fwd_us", Unit: "us", Better: "lower"},
	{Name: "shard.rev_us", Unit: "us", Better: "lower"},
	{Name: "shard.topk_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.gather_us", Unit: "us", Better: "lower"},
	{Name: "shard.leg_skew", Unit: "ratio", Better: "lower"},
	{Name: "shard.rev_over_mono", Unit: "ratio", Better: "lower"},
	{Name: "router.fwd_us", Unit: "us", Better: "lower"},
	{Name: "router.rev_us", Unit: "us", Better: "lower"},
	{Name: "router.topk_ms", Unit: "ms", Better: "lower"},
	{Name: "router.wire_us", Unit: "us", Better: "lower"},
	{Name: "router.gather_us", Unit: "us", Better: "lower"},
	{Name: "router.legs_failed", Unit: "count", Better: "lower"},
	{Name: "router.proc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "sem.acquire_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsync_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_record", Unit: "B", Better: "lower"}, // exact
	{Name: "ingest.submit_us_per_record", Unit: "us", Better: "lower"},
	{Name: "ingest.apply_us_per_record", Unit: "us", Better: "lower"},
	{Name: "ingest.replay_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.search_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.reverse_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.response_bytes", Unit: "B", Better: "lower"},
	{Name: "serve.search_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.reverse_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.shed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.cpu_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "serve.ingest_ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.ingest_ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.applies", Unit: "count", Better: "higher"},
	{Name: "serve.reslices", Unit: "count", Better: "higher"},
	{Name: "serve.coverage_end", Unit: "ratio", Better: "higher"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// exactLayerCounters must be identical across two runs under one seed.
var exactLayerCounters = []string{
	"persist.bytes_per_attr", "index.topk_exact_checks", "index.fwd_candidates",
	"index.rev_candidates", "index.allpairs_pairs", "wal.bytes_per_record",
}

// layerPass records per-layer metrics and their spans. On the untraced
// run it is inert: the per-layer ledger belongs to the traced run alone.
type layerPass struct {
	tr  *tracer
	res *runResult
}

func (lp *layerPass) record(name, unit string, v float64) {
	if lp.tr != nil {
		lp.res.set(name, unit, v)
	}
}

// op books one in-process call: attempted, and failed when it errored.
func (lp *layerPass) op(what string, err error) bool {
	lp.res.Attempted++
	if err != nil {
		lp.res.Failed++
		lp.res.fail("%s: %v", what, err)
		return false
	}
	return true
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Sizes of the in-process pass. The cheap classes get enough calls for a
// steady mean; the heavy ones (top-k validates every attribute) get a
// handful, because the whole pass must fit beside the HTTP phases.
const (
	layerFwdQueries     = 1000
	layerRevQueries     = 500
	layerRelaxedQueries = 8
	layerTopKQueries    = 4
	layerBatches        = 16
	layerShardQueries   = 400
	layerRouterQueries  = 300
	layerAllPairsAttrs  = 2000
	// serverSeed is tindserve's default -seed: it drives slice selection
	// and the shard hash in the real processes, so the in-process engines
	// are built the way the servers build theirs.
	serverSeed = 1
)

// queryAgg accumulates the engine-reported stats of one query class.
type queryAgg struct {
	n                               int
	total, mt, slice, subset, valid time.Duration
	rank                            time.Duration
	candidates, validated, results  int
}

func (a *queryAgg) add(st index.QueryStats) {
	a.n++
	a.total += st.Timings.Total
	a.mt += st.Timings.MTPrune
	a.slice += st.Timings.SlicePrune
	a.subset += st.Timings.SubsetCheck
	a.valid += st.Timings.Validate
	a.rank += st.Timings.Rank
	a.candidates += st.InitialCandidates
	a.validated += st.Validated
	a.results += st.Results
}

func (a *queryAgg) mean(d time.Duration) time.Duration {
	if a.n == 0 {
		return 0
	}
	return d / time.Duration(a.n)
}

// querySpan records one engine call as a span whose children are the
// phases the engine itself reported, laid end to end from the start; the
// remainder is the call's self time. Scatter legs (PerShard) are children
// that all begin with the call, each with its own phases — and, for the
// router, a wire child: leg wall time minus the shard's reported total.
func (lp *layerPass) querySpan(name string, start time.Time, st index.QueryStats, wire bool) {
	req := lp.tr.newReq()
	id := lp.tr.add(0, req, name, start, st.Timings.Total)
	phasesOf := func(parent int, at time.Time, t index.Timings) {
		for _, ph := range []struct {
			n string
			d time.Duration
		}{{"mt_prune", t.MTPrune}, {"slice_prune", t.SlicePrune}, {"subset_check", t.SubsetCheck},
			{"validate", t.Validate}, {"rank", t.Rank}} {
			if ph.d > 0 {
				lp.tr.add(parent, req, ph.n, at, ph.d)
				at = at.Add(ph.d)
			}
		}
	}
	if len(st.PerShard) == 0 {
		phasesOf(id, start, st.Timings)
		return
	}
	for _, leg := range st.PerShard {
		lid := lp.tr.add(id, req, fmt.Sprintf("leg:%d", leg.Shard), start, leg.Elapsed)
		at := start
		if wire && leg.Elapsed > leg.Timings.Total {
			w := leg.Elapsed - leg.Timings.Total
			lp.tr.add(lid, req, "wire", start, w)
			at = start.Add(w)
		}
		phasesOf(lid, at, leg.Timings)
	}
}

// engine is the query contract the monolith, the sharded index and the
// router share.
type engine interface {
	Query(ctx context.Context, q *history.History, o index.QueryOptions) (index.Result, error)
}

// runQueries issues ids[:n] against eng in one mode and aggregates the
// engine's stats; spans are recorded after the loop so that recording
// never sits inside a timed call.
func (lp *layerPass) runQueries(eng engine, ds *history.Dataset, span string, ids []int, o index.QueryOptions, wire bool) (queryAgg, []index.QueryStats) {
	var agg queryAgg
	stats := make([]index.QueryStats, 0, len(ids))
	starts := make([]time.Time, 0, len(ids))
	ctx := context.Background()
	for _, id := range ids {
		t0 := time.Now()
		res, err := eng.Query(ctx, ds.Attr(history.AttrID(id)), o)
		if !lp.op(span, err) {
			continue
		}
		agg.add(res.Stats)
		stats = append(stats, res.Stats)
		starts = append(starts, t0)
	}
	for i, st := range stats {
		st.Trace = nil
		lp.querySpan(span, starts[i], st, wire)
	}
	return agg, stats
}

// legStats summarises scatter attribution: mean gather time (call wall
// time minus its slowest leg), mean skew (slowest ÷ mean leg), mean wire
// time per leg, and the number of failed legs.
func legStats(stats []index.QueryStats) (gatherUS, skew, wireUS float64, failed int) {
	var n, legs int
	for _, st := range stats {
		if len(st.PerShard) == 0 {
			continue
		}
		var slowest, sum time.Duration
		for _, leg := range st.PerShard {
			if leg.Failed() {
				failed++
			}
			slowest = max(slowest, leg.Elapsed)
			sum += leg.Elapsed
			wireUS += us(max(0, leg.Elapsed-leg.Timings.Total))
			legs++
		}
		gatherUS += us(max(0, st.Elapsed-slowest))
		if sum > 0 {
			skew += float64(slowest) / (float64(sum) / float64(len(st.PerShard)))
		}
		n++
	}
	if n > 0 {
		gatherUS /= float64(n)
		skew /= float64(n)
	}
	if legs > 0 {
		wireUS /= float64(legs)
	}
	return
}

// inProcess is the in-process half of the traced run: every layer called
// directly through its exported functions over the corpus file the
// servers loaded and the head of the query stream they were sent.
func (lp *layerPass) inProcess(cfg runConfig, corpus *datagen.Corpus, corpusPath string, stream *queryStream) error {
	ctx := context.Background()

	// persist: load the file the servers loaded.
	t0 := time.Now()
	f, err := os.Open(corpusPath)
	if err != nil {
		return err
	}
	ds, err := persist.Read(f)
	f.Close()
	d := time.Since(t0)
	if !lp.op("persist.read", err) {
		return err
	}
	lp.tr.add(0, lp.tr.newReq(), "persist.read", t0, d)
	lp.record("persist.read_s", "s", d.Seconds())

	n := ds.Len()
	w := timeline.Uniform(ds.Horizon())
	native := core.Params{Epsilon: nativeEps, Delta: nativeDelta, Weight: w}
	relaxed := core.Params{Epsilon: relaxedEps, Delta: relaxedDelta, Weight: w}
	ids := make([]int, 2000)
	for i := range ids {
		ids[i] = stream.id(i)
	}
	head := func(k int) []int { return ids[:min(k, len(ids))] }

	opt := index.DefaultOptions(ds.Horizon())
	opt.Reverse = true
	opt.Seed = serverSeed

	// bloom + bitmatrix: one matrix at the index's shape over every
	// attribute's value set, probed with required-value filters.
	t0 = time.Now()
	filters := make([]*bloom.Filter, n)
	for i := 0; i < n; i++ {
		filters[i] = bloom.FromSet(opt.Bloom, ds.Attr(history.AttrID(i)).AllValues())
	}
	lp.record("bloom.fromset_ns", "ns", float64(time.Since(t0).Nanoseconds())/float64(n))
	m := bitmatrix.NewMatrix(opt.Bloom, n)
	for i, fl := range filters {
		m.SetColumn(i, fl)
	}
	probes := head(256)
	qfs := make([]*bloom.Filter, len(probes))
	for i, id := range probes {
		qfs[i] = bloom.FromSet(opt.Bloom, core.RequiredValues(ds.Attr(history.AttrID(id)), nativeEps, w))
	}
	t0 = time.Now()
	for _, qf := range qfs {
		m.Supersets(qf, nil)
	}
	lp.record("bitmatrix.supersets_us", "us", us(time.Since(t0))/float64(len(qfs)))
	t0 = time.Now()
	for _, id := range probes {
		m.Subsets(filters[id], nil)
	}
	lp.record("bitmatrix.subsets_us", "us", us(time.Since(t0))/float64(len(probes)))
	var loads, hits int
	for at := 0; at+batchEntries <= len(qfs); at += batchEntries {
		outs := make([]*bitmatrix.Vec, batchEntries)
		for i := range outs {
			outs[i] = bitmatrix.NewVecFull(n)
		}
		l, h := m.SupersetsBatch(qfs[at:at+batchEntries], outs)
		loads, hits = loads+l, hits+h
	}
	lp.record("bitmatrix.batch_row_hit_ratio", "ratio", ratio(float64(hits), float64(loads)))

	// core: exact validation per pair, genuine links (planted by the
	// generator: long containments, validated end to end) apart from random
	// pairs (mostly violated), and required-value extraction.
	var genuine [][2]int
	for a := 0; a < n && len(genuine) < 500; a++ {
		if p := corpus.Truth.Parent(history.AttrID(a)); p >= 0 {
			genuine = append(genuine, [2]int{a, int(p)})
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed + 77))
	random := make([][2]int, 2000)
	for i := range random {
		random[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	timePairs := func(pairs [][2]int) float64 {
		if len(pairs) == 0 {
			return 0
		}
		t0 := time.Now()
		for _, p := range pairs {
			core.ViolationWeight(ds.Attr(history.AttrID(p[0])), ds.Attr(history.AttrID(p[1])), native)
		}
		return us(time.Since(t0)) / float64(len(pairs))
	}
	lp.record("core.violation_weight_genuine_us", "us", timePairs(genuine))
	lp.record("core.violation_weight_random_us", "us", timePairs(random))
	t0 = time.Now()
	for _, id := range ids {
		core.RequiredValues(ds.Attr(history.AttrID(id)), nativeEps, w)
	}
	lp.record("core.required_values_us", "us", us(time.Since(t0))/float64(len(ids)))

	// index: build, then each query class.
	t0 = time.Now()
	idx, err := index.Build(ds, opt)
	if !lp.op("index.build", err) {
		return err
	}
	bs := idx.Stats()
	breq := lp.tr.newReq()
	bid := lp.tr.add(0, breq, "index.build", t0, bs.Elapsed)
	at := t0
	for _, ph := range []struct {
		n string
		d time.Duration
	}{{"mt", bs.MTBuild}, {"slices", bs.SliceBuild}, {"mr", bs.MRBuild}} {
		lp.tr.add(bid, breq, "index.build:"+ph.n, at, ph.d)
		at = at.Add(ph.d)
	}
	lp.record("index.build_s", "s", bs.Elapsed.Seconds())
	lp.record("index.build_mt_s", "s", bs.MTBuild.Seconds())
	lp.record("index.build_slices_s", "s", bs.SliceBuild.Seconds())
	lp.record("index.build_mr_s", "s", bs.MRBuild.Seconds())
	lp.record("index.memory_mb", "MB", float64(bs.MemoryBytes)/(1<<20))

	fwdO := index.QueryOptions{Mode: index.ModeForward, Params: native}
	revO := index.QueryOptions{Mode: index.ModeReverse, Params: native}
	topO := index.QueryOptions{Mode: index.ModeTopK, K: topK, Params: core.Params{Delta: nativeDelta, Weight: w}}

	fwd, _ := lp.runQueries(idx, ds, "index.query:forward", head(layerFwdQueries), fwdO, false)
	lp.record("index.fwd_us", "us", us(fwd.mean(fwd.total)))
	lp.record("index.fwd_mt_us", "us", us(fwd.mean(fwd.mt)))
	lp.record("index.fwd_slice_us", "us", us(fwd.mean(fwd.slice)))
	lp.record("index.fwd_subset_us", "us", us(fwd.mean(fwd.subset)))
	lp.record("index.fwd_validate_us", "us", us(fwd.mean(fwd.valid)))
	lp.record("index.fwd_candidates", "count", ratio(float64(fwd.candidates), float64(fwd.n)))
	lp.record("index.fwd_validated_per_result", "ratio", ratio(float64(fwd.validated), float64(max(fwd.results, 1))))

	rev, _ := lp.runQueries(idx, ds, "index.query:reverse", head(layerRevQueries), revO, false)
	lp.record("index.rev_us", "us", us(rev.mean(rev.total)))
	lp.record("index.rev_mt_us", "us", us(rev.mean(rev.mt)))
	lp.record("index.rev_slice_us", "us", us(rev.mean(rev.slice)))
	lp.record("index.rev_subset_us", "us", us(rev.mean(rev.subset)))
	lp.record("index.rev_validate_us", "us", us(rev.mean(rev.valid)))
	lp.record("index.rev_candidates", "count", ratio(float64(rev.candidates), float64(rev.n)))

	// Allocation footprint of a forward query, then the cost of
	// QueryOptions.Trace, which tindserve sets on every request: the same
	// queries with trace off and on, alternated so drift hits both alike.
	// Both are measured apart from the span-recording loops above.
	taxIDs := head(400)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, id := range taxIDs {
		_, err := idx.Query(ctx, ds.Attr(history.AttrID(id)), fwdO)
		lp.op("index.query", err)
	}
	runtime.ReadMemStats(&m1)
	lp.record("index.fwd_allocs", "count", float64(m1.Mallocs-m0.Mallocs)/float64(len(taxIDs)))
	lp.record("index.fwd_bytes", "B", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(len(taxIDs)))
	tracedO := fwdO
	tracedO.Trace = true
	var off, on time.Duration
	for i, id := range taxIDs {
		q := ds.Attr(history.AttrID(id))
		// The second call of a pair finds the query's data in cache, so the
		// order flips every pair.
		first, second := fwdO, tracedO
		if i%2 == 1 {
			first, second = tracedO, fwdO
		}
		t0 := time.Now()
		_, err := idx.Query(ctx, q, first)
		t1 := time.Now()
		_, err2 := idx.Query(ctx, q, second)
		d1, d2 := t1.Sub(t0), time.Since(t1)
		if i%2 == 1 {
			d1, d2 = d2, d1
		}
		off, on = off+d1, on+d2
		lp.op("index.query", err)
		lp.op("index.query", err2)
	}
	lp.record("index.trace_tax_ratio", "ratio", ratio(float64(on), float64(off)))

	rel, _ := lp.runQueries(idx, ds, "index.query:relaxed", head(layerRelaxedQueries),
		index.QueryOptions{Mode: index.ModeReverse, Params: relaxed}, false)
	lp.record("index.relaxed_us", "us", us(rel.mean(rel.total)))
	lp.record("index.relaxed_subset_us", "us", us(rel.mean(rel.subset)))

	top, _ := lp.runQueries(idx, ds, "index.query:topk", head(layerTopKQueries), topO, false)
	lp.record("index.topk_ms", "ms", ms(top.mean(top.total)))
	lp.record("index.topk_validate_ms", "ms", ms(top.mean(top.valid)))
	lp.record("index.topk_rank_ms", "ms", ms(top.mean(top.rank)))
	lp.record("index.topk_exact_checks", "count", ratio(float64(top.validated), float64(top.n)))

	var batchTime time.Duration
	for b := 0; b < layerBatches; b++ {
		batch := make([]index.BatchQuery, batchEntries)
		for j := range batch {
			o := fwdO
			if j >= batchEntries/2 {
				o = revO
			}
			batch[j] = index.BatchQuery{ByID: true, ID: history.AttrID(stream.id(b*batchEntries + j)), Options: o}
		}
		t0 := time.Now()
		_, err := idx.QueryBatch(ctx, batch, index.BatchOptions{})
		batchTime += time.Since(t0)
		lp.op("index.query_batch", err)
	}
	lp.record("index.batch32_us_per_entry", "us", us(batchTime)/float64(layerBatches*batchEntries))

	// Maintenance: an idempotent refresh of half the attributes (same
	// horizon, no data change) dirties them; one Reslice repairs coverage.
	half := make([]history.AttrID, n/2)
	for i := range half {
		half[i] = history.AttrID(2 * i)
	}
	t0 = time.Now()
	err = idx.Refresh(half, ds.Horizon())
	d = time.Since(t0)
	lp.op("index.refresh", err)
	lp.record("index.refresh_us_per_attr", "us", us(d)/float64(max(len(half), 1)))
	t0 = time.Now()
	_, err = idx.Reslice()
	lp.op("index.reslice", err)
	lp.record("index.reslice_s", "s", time.Since(t0).Seconds())

	// All-pairs discovery is quadratic; it runs on a prefix of the corpus.
	sub := ds.Subset(min(layerAllPairsAttrs, n))
	subIdx, err := index.Build(sub, opt)
	if lp.op("index.build(prefix)", err) {
		t0 = time.Now()
		pairs, err := subIdx.AllPairsContext(ctx, native, 0)
		d = time.Since(t0)
		lp.op("index.allpairs", err)
		lp.record("index.allpairs_s", "s", d.Seconds())
		lp.record("index.allpairs_pairs", "count", float64(len(pairs)))
	}

	// shard: the in-process scatter-gather over the same corpus.
	t0 = time.Now()
	sx, err := shard.Build(ds, shard.Options{Shards: inProcShards, Seed: serverSeed, Index: shard.PartitionOptions(opt, inProcShards)})
	if !lp.op("shard.build", err) {
		return err
	}
	lp.record("shard.build_s", "s", time.Since(t0).Seconds())
	sf, sfStats := lp.runQueries(sx, ds, "shard.query:forward", head(layerShardQueries), fwdO, false)
	sr, srStats := lp.runQueries(sx, ds, "shard.query:reverse", head(layerShardQueries), revO, false)
	st, _ := lp.runQueries(sx, ds, "shard.query:topk", head(layerTopKQueries), topO, false)
	lp.record("shard.fwd_us", "us", us(sf.mean(sf.total)))
	lp.record("shard.rev_us", "us", us(sr.mean(sr.total)))
	lp.record("shard.topk_ms", "ms", ms(st.mean(st.total)))
	gather, skew, _, _ := legStats(append(sfStats, srStats...))
	lp.record("shard.gather_us", "us", gather)
	lp.record("shard.leg_skew", "ratio", skew)
	lp.record("shard.rev_over_mono", "ratio", ratio(float64(sr.mean(sr.total)), float64(rev.mean(rev.total))))

	// router: the real Router over real shard-server handlers, on
	// loopback listeners inside this process.
	urls := make([][]string, routerShards)
	sopt := shard.Options{Shards: routerShards, Seed: serverSeed, Index: shard.PartitionOptions(opt, routerShards)}
	for s := 0; s < routerShards; s++ {
		sg, err := shard.BuildSingle(ds, sopt, s)
		if !lp.op("shard.build_single", err) {
			return err
		}
		srv := httptest.NewServer(router.NewShardServer(sg).Handler())
		defer srv.Close()
		urls[s] = []string{srv.URL}
	}
	rt, err := router.New(ctx, router.Options{Shards: urls, LegTimeout: 30 * time.Second})
	if !lp.op("router.new", err) {
		return err
	}
	rf, rfStats := lp.runQueries(rt, ds, "router.query:forward", head(layerRouterQueries), fwdO, true)
	rr, rrStats := lp.runQueries(rt, ds, "router.query:reverse", head(layerRouterQueries), revO, true)
	rk, rkStats := lp.runQueries(rt, ds, "router.query:topk", head(layerTopKQueries/2), topO, true)
	lp.record("router.fwd_us", "us", us(rf.mean(rf.total)))
	lp.record("router.rev_us", "us", us(rr.mean(rr.total)))
	lp.record("router.topk_ms", "ms", ms(rk.mean(rk.total)))
	rGather, _, wire, legsFailed := legStats(append(append(rfStats, rrStats...), rkStats...))
	lp.record("router.wire_us", "us", wire)
	lp.record("router.gather_us", "us", rGather)
	lp.record("router.legs_failed", "count", float64(legsFailed))

	// sem: the admission limiter every request passes.
	lim := sem.New(int64(4 * runtime.GOMAXPROCS(0)))
	const semOps = 1 << 20
	t0 = time.Now()
	for i := 0; i < semOps; i++ {
		if lim.TryAcquire(1) {
			lim.Release(1)
		}
	}
	lp.record("sem.acquire_ns", "ns", float64(time.Since(t0).Nanoseconds())/semOps)

	return lp.writePath(cfg, ds, sx, corpusPath)
}

// writePath measures the WAL and the ingester: append with and without
// fsync, submit (validate + log), apply (Flush into the sharded engine)
// and recovery replay. It mutates ds and sx, so it runs last.
func (lp *layerPass) writePath(cfg runConfig, ds *history.Dataset, sx *shard.ShardedIndex, corpusPath string) error {
	dir := filepath.Join(cfg.workDir, "layers")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	feed := newIngestFeed(cfg.seed, ds)
	// wal.fsync_us: one record per durable append, as /ingest acks them.
	syncLog, err := wal.Open(filepath.Join(dir, "sync.wal"), wal.Options{Sync: wal.SyncAlways})
	if !lp.op("wal.open", err) {
		return err
	}
	one := wal.Record{Type: wal.TypeExtendObservation, Attr: 0, End: ds.Attr(0).ObservedUntil()}
	const fsyncs = 64
	t0 := time.Now()
	for i := 0; i < fsyncs; i++ {
		s0 := time.Now()
		_, err := syncLog.Append(one)
		lp.op("wal.append(sync)", err)
		lp.tr.add(0, lp.tr.newReq(), "wal.append:fsync", s0, time.Since(s0))
	}
	lp.record("wal.fsync_us", "us", us(time.Since(t0))/fsyncs)
	syncLog.Close()

	log, err := wal.Open(filepath.Join(dir, "ingest.wal"), wal.Options{Sync: wal.SyncNever})
	if !lp.op("wal.open", err) {
		return err
	}
	defer log.Close()
	const appends = 2048
	size0 := log.Size()
	t0 = time.Now()
	for i := 0; i < appends; i++ {
		_, err := log.Append(one)
		lp.op("wal.append", err)
	}
	d := time.Since(t0)
	lp.tr.add(0, lp.tr.newReq(), "wal.append:nosync", t0, d)
	lp.record("wal.append_us", "us", us(d)/appends)
	lp.record("wal.bytes_per_record", "B", float64(log.Size()-size0)/appends)

	// ingest: submit rounds without applying, then one Flush, then replay
	// the log onto a fresh copy of the corpus.
	from := log.Size()
	in := ingest.New(sx, ds, log, ingest.Options{MaxDirty: 1 << 30, MaxDirtyAge: time.Hour})
	var submitted int
	var submitTime time.Duration
	for r := 0; r < 128; r++ {
		recs := feed.records()
		s0 := time.Now()
		err := in.Submit(recs)
		sd := time.Since(s0)
		if !lp.op("ingest.submit", err) {
			return err
		}
		lp.tr.add(0, lp.tr.newReq(), "ingest.submit", s0, sd)
		submitTime += sd
		submitted += len(recs)
	}
	lp.record("ingest.submit_us_per_record", "us", us(submitTime)/float64(submitted))
	t0 = time.Now()
	err = in.Flush()
	d = time.Since(t0)
	lp.op("ingest.flush", err)
	lp.tr.add(0, lp.tr.newReq(), "ingest.flush", t0, d)
	lp.record("ingest.apply_us_per_record", "us", us(d)/float64(submitted))
	lp.op("ingest.close", in.Close())

	f, err := os.Open(corpusPath)
	if err != nil {
		return err
	}
	fresh, err := persist.Read(f)
	f.Close()
	if !lp.op("persist.read", err) {
		return err
	}
	t0 = time.Now()
	_, replayed, err := ingest.Replay(fresh, log, from, nil)
	d = time.Since(t0)
	lp.op("ingest.replay", err)
	lp.record("ingest.replay_records_per_s", "1/s", ratio(float64(replayed), d.Seconds()))
	if replayed != submitted {
		lp.op("ingest.replay", fmt.Errorf("replayed %d records, submitted %d", replayed, submitted))
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}
