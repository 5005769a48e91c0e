package router

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/oracle"
	"tind/internal/shard"
	"tind/internal/timeline"
	"tind/internal/values"
)

// This file is the distributed differential harness: a Router fronting
// real shard servers (httptest, full HTTP round trips through the wire
// protocol) must agree bit-for-bit with the in-process ShardedIndex
// over the same partition, and with the exhaustive oracle modulo the
// borderline band — for every query mode, batched execution, all-pairs
// discovery, and across a refresh. Both engines run shard.Gather over
// identically-built per-shard indexes, so any disagreement is a wire
// protocol or routing bug, never an acceptable approximation.

func genDataset(tb testing.TB, seed int64, attrs int, horizon timeline.Time) *history.Dataset {
	tb.Helper()
	c, err := datagen.Generate(datagen.Config{
		Seed:           seed,
		Horizon:        horizon,
		Attributes:     attrs,
		AttrsPerDomain: 6,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return c.Dataset
}

func vioMatrix(ds *history.Dataset, p core.Params) [][]float64 {
	n := ds.Len()
	m := make([][]float64, n)
	for qi := 0; qi < n; qi++ {
		m[qi] = make([]float64, n)
		for ai := 0; ai < n; ai++ {
			if ai == qi {
				continue
			}
			m[qi][ai] = oracle.ViolationWeight(ds.Attr(history.AttrID(qi)), ds.Attr(history.AttrID(ai)), p)
		}
	}
	return m
}

func diffTol(w timeline.WeightFunc) float64 {
	total := w.Sum(timeline.NewInterval(0, w.Horizon()))
	return 1e-9 * (1 + total)
}

func checkIDSet(t *testing.T, label string, got []history.AttrID, self history.AttrID,
	vio []float64, eps, tol float64) {
	t.Helper()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("%s: result ids not ascending: %v", label, got)
	}
	in := make(map[history.AttrID]bool, len(got))
	for _, id := range got {
		if id == self {
			t.Fatalf("%s: result contains the query attribute %d", label, self)
		}
		in[id] = true
		if vio[id] > eps+tol {
			t.Fatalf("%s: false positive %d (violation %g > ε %g)", label, id, vio[id], eps)
		}
	}
	for a := range vio {
		id := history.AttrID(a)
		if id == self {
			continue
		}
		if vio[a] < eps-tol && !in[id] {
			t.Fatalf("%s: merge dropped true result %d (violation %g < ε %g)", label, id, vio[a], eps)
		}
	}
}

// cluster is one distributed deployment under test: the per-shard
// engines, their HTTP servers, and the Router fronting them.
type cluster struct {
	singles []*shard.Single
	servers []*httptest.Server
	router  *Router
}

// startCluster builds every shard of the partition in isolation
// (shard.BuildSingle — the shard-server build path, not a carved-up
// ShardedIndex), serves each behind a real HTTP listener, and wires a
// Router over them.
func startCluster(t *testing.T, ds *history.Dataset, opt shard.Options) *cluster {
	t.Helper()
	c := &cluster{}
	urls := make([][]string, opt.Shards)
	for s := 0; s < opt.Shards; s++ {
		sg, err := shard.BuildSingle(ds, opt, s)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewShardServer(sg).Handler())
		t.Cleanup(srv.Close)
		c.singles = append(c.singles, sg)
		c.servers = append(c.servers, srv)
		urls[s] = []string{srv.URL}
	}
	r, err := New(context.Background(), Options{Shards: urls, LegTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	c.router = r
	return c
}

// TestRouterMatchesShardedAndOracle is the core distributed
// differential: for every query mode the Router's answer through the
// wire must equal the in-process ShardedIndex's bit-for-bit (ids,
// rankings and the gathered funnel counters) and the oracle's modulo
// tolerance, for 1, 2 and 4 shards.
func TestRouterMatchesShardedAndOracle(t *testing.T) {
	const horizon = timeline.Time(120)
	ds := genDataset(t, 901, 24, horizon)
	w := timeline.Uniform(horizon)
	total := w.Sum(timeline.NewInterval(0, horizon))
	p := core.Params{Epsilon: 0.04 * total, Delta: 2, Weight: w}
	monoOpt := index.Options{
		Bloom:   bloom.Params{M: 256, K: 2},
		Slices:  8,
		Params:  p,
		Reverse: true,
		Seed:    901,
	}
	tol := diffTol(w)
	vio := vioMatrix(ds, p)
	ctx := context.Background()

	for _, n := range []int{1, 2, 4} {
		n := n
		t.Run(fmt.Sprintf("shards%d", n), func(t *testing.T) {
			t.Parallel()
			opt := shard.Options{Shards: n, Seed: 77, Index: shard.PartitionOptions(monoOpt, n)}
			sx, err := shard.Build(ds, opt)
			if err != nil {
				t.Fatal(err)
			}
			cl := startCluster(t, ds, opt)
			r := cl.router

			if got := r.NumShards(); got != n {
				t.Fatalf("NumShards = %d, want %d", got, n)
			}
			if info := r.Info(); info.Attributes != ds.Len() || info.Horizon != int64(horizon) {
				t.Fatalf("topology info %+v disagrees with corpus (%d attrs, horizon %d)",
					info, ds.Len(), horizon)
			}

			for qi := 0; qi < ds.Len(); qi++ {
				self := history.AttrID(qi)
				q := ds.Attr(self)
				for _, mode := range []index.Mode{index.ModeForward, index.ModeReverse} {
					o := index.QueryOptions{Mode: mode, Params: p}
					rres, err := r.Query(ctx, q, o)
					if err != nil {
						t.Fatal(err)
					}
					sres, err := sx.Query(ctx, q, o)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(rres.IDs) != fmt.Sprint(sres.IDs) {
						t.Fatalf("q=%d %v: router %v, in-process %v", qi, mode, rres.IDs, sres.IDs)
					}
					// The per-shard indexes are built identically on both
					// sides, so the gathered funnel must agree exactly —
					// the wire stats carry the full pruning story.
					if rres.Stats.InitialCandidates != sres.Stats.InitialCandidates ||
						rres.Stats.Validated != sres.Stats.Validated ||
						rres.Stats.Results != sres.Stats.Results {
						t.Fatalf("q=%d %v: router funnel %d/%d/%d, in-process %d/%d/%d",
							qi, mode,
							rres.Stats.InitialCandidates, rres.Stats.Validated, rres.Stats.Results,
							sres.Stats.InitialCandidates, sres.Stats.Validated, sres.Stats.Results)
					}
					if len(rres.Stats.PerShard) != n {
						t.Fatalf("q=%d %v: router PerShard has %d legs, want %d",
							qi, mode, len(rres.Stats.PerShard), n)
					}
					for _, leg := range rres.Stats.PerShard {
						if leg.Failed() {
							t.Fatalf("q=%d %v: healthy scatter marked leg %d failed: %s",
								qi, mode, leg.Shard, leg.Err)
						}
					}
					dir := vio[qi]
					if mode == index.ModeReverse {
						dir = make([]float64, ds.Len())
						for ai := 0; ai < ds.Len(); ai++ {
							dir[ai] = vio[ai][qi]
						}
					}
					checkIDSet(t, fmt.Sprintf("q=%d %v", qi, mode), rres.IDs, self, dir, p.Epsilon, tol)
				}
			}

			// Top-k through the wire: the gathered ranking must be the
			// in-process one exactly, including (violation, id) tie order.
			for _, qi := range []int{0, ds.Len() / 2, ds.Len() - 1} {
				for _, k := range []int{1, 3, ds.Len()} {
					o := index.QueryOptions{Mode: index.ModeTopK, Params: core.Params{Delta: p.Delta, Weight: w}, K: k}
					rres, err := r.Query(ctx, ds.Attr(history.AttrID(qi)), o)
					if err != nil {
						t.Fatal(err)
					}
					sres, err := sx.Query(ctx, ds.Attr(history.AttrID(qi)), o)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(rres.Ranked) != fmt.Sprint(sres.Ranked) {
						t.Fatalf("topk q=%d k=%d: router %v, in-process %v", qi, k, rres.Ranked, sres.Ranked)
					}
					for i, rr := range rres.Ranked {
						if math.IsNaN(rr.Violation) {
							t.Fatalf("topk q=%d k=%d: rank %d violation is NaN after the wire round trip", qi, k, i)
						}
					}
				}
			}

			// Batched execution: the whole batch crosses the wire once per
			// shard and every entry gathers like its single-query twin.
			var batch []index.BatchQuery
			for qi := 0; qi < ds.Len(); qi++ {
				mode := index.ModeForward
				if qi%3 == 1 {
					mode = index.ModeReverse
				}
				batch = append(batch, index.BatchQuery{
					ByID: true, ID: history.AttrID(qi),
					Options: index.QueryOptions{Mode: mode, Params: p},
				})
			}
			rbatch, err := r.QueryBatch(ctx, batch, index.BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sbatch, err := sx.QueryBatch(ctx, batch, index.BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range batch {
				if fmt.Sprint(rbatch[i].IDs) != fmt.Sprint(sbatch[i].IDs) {
					t.Fatalf("batch[%d]: router %v, in-process %v", i, rbatch[i].IDs, sbatch[i].IDs)
				}
			}

			// All-pairs discovery: blocks of forward entries over /shard/batch.
			rpairs, err := r.AllPairsContext(ctx, p, 0)
			if err != nil {
				t.Fatal(err)
			}
			spairs, err := sx.AllPairsContext(ctx, p, 3)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(rpairs) != fmt.Sprint(spairs) {
				t.Fatalf("all-pairs: router %v, in-process %v", rpairs, spairs)
			}
			want := oracle.AllPairs(ds, p)
			if len(rpairs) != len(want) {
				t.Fatalf("all-pairs: router found %d pairs, oracle %d", len(rpairs), len(want))
			}
			for i := range want {
				if rpairs[i].LHS != want[i].LHS || rpairs[i].RHS != want[i].RHS {
					t.Fatalf("all-pairs[%d]: router %v, oracle %v", i, rpairs[i], want[i])
				}
			}
			if len(rpairs) == 0 {
				t.Fatal("corpus produced no pairs; the differential is vacuous")
			}

			// Build-stats aggregation over the wire matches the in-process
			// partition's corpus accounting.
			if st := r.Stats(); st.Attributes != ds.Len() {
				t.Fatalf("router Stats.Attributes = %d, want %d", st.Attributes, ds.Len())
			}
		})
	}
}

// TestRouterRefreshMatchesRebuild pins refresh-vs-rebuild parity
// through the router: after the same appends land on every shard server
// (Single.Refresh) and the in-process partition, the router, a
// freshly-rebuilt cluster and the in-process engine must agree on every
// query, and the oracle must confirm them.
func TestRouterRefreshMatchesRebuild(t *testing.T) {
	const (
		oldHorizon = timeline.Time(80)
		newHorizon = timeline.Time(100)
		nShards    = 2
	)
	ds := genDataset(t, 903, 16, oldHorizon)
	monoOpt := index.Options{
		Bloom:   bloom.Params{M: 256, K: 2},
		Slices:  8,
		Params:  core.Params{Epsilon: 3.5, Delta: 2, Weight: timeline.Uniform(oldHorizon)},
		Reverse: true,
		Seed:    903,
	}
	opt := shard.Options{Shards: nShards, Seed: 5, Index: shard.PartitionOptions(monoOpt, nShards)}
	sx, err := shard.Build(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	cl := startCluster(t, ds, opt)

	// Apply appends to the shared global dataset, exactly like the live
	// ingestion path does before telling the engines.
	if err := ds.ExtendHorizon(newHorizon); err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(903))
	var changed []history.AttrID
	for id := 0; id < ds.Len(); id++ {
		h := ds.Attr(history.AttrID(id))
		if rnd.Intn(3) == 0 {
			continue
		}
		start := h.ObservedUntil()
		vals := h.At(start - 1)
		if rnd.Intn(2) == 0 {
			donor := ds.Attr(history.AttrID(rnd.Intn(ds.Len()))).AllValues()
			if donor.Len() > 0 {
				vals = vals.Union(values.NewSet(donor[rnd.Intn(donor.Len())]))
			}
		} else if vals.Len() > 1 {
			vals = vals[:vals.Len()-1]
		}
		if err := h.Append(start, vals, newHorizon); err != nil {
			t.Fatal(err)
		}
		changed = append(changed, history.AttrID(id))
	}
	if len(changed) == 0 {
		t.Fatal("no attributes changed; refresh differential is vacuous")
	}
	if err := sx.Refresh(changed, newHorizon); err != nil {
		t.Fatal(err)
	}
	for s, sg := range cl.singles {
		if err := sg.Refresh(changed, newHorizon); err != nil {
			t.Fatalf("shard server %d refresh: %v", s, err)
		}
	}

	// A second cluster built from scratch over the post-append dataset.
	rebuiltOpt := opt
	rebuiltOpt.Index.Params.Weight = timeline.Uniform(newHorizon)
	rebuilt := startCluster(t, ds, rebuiltOpt)

	p := core.Params{Epsilon: 3.5, Delta: 2, Weight: timeline.Uniform(newHorizon)}
	tol := diffTol(p.Weight)
	vio := vioMatrix(ds, p)
	ctx := context.Background()
	for qi := 0; qi < ds.Len(); qi++ {
		self := history.AttrID(qi)
		q := ds.Attr(self)
		for _, mode := range []index.Mode{index.ModeForward, index.ModeReverse} {
			o := index.QueryOptions{Mode: mode, Params: p}
			refreshed, err := cl.router.Query(ctx, q, o)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := rebuilt.router.Query(ctx, q, o)
			if err != nil {
				t.Fatal(err)
			}
			inproc, err := sx.Query(ctx, q, o)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(refreshed.IDs) != fmt.Sprint(fresh.IDs) {
				t.Fatalf("q=%d %v: refreshed cluster %v, rebuilt cluster %v", qi, mode, refreshed.IDs, fresh.IDs)
			}
			if fmt.Sprint(refreshed.IDs) != fmt.Sprint(inproc.IDs) {
				t.Fatalf("q=%d %v: refreshed cluster %v, in-process %v", qi, mode, refreshed.IDs, inproc.IDs)
			}
			dir := vio[qi]
			if mode == index.ModeReverse {
				dir = make([]float64, ds.Len())
				for ai := 0; ai < ds.Len(); ai++ {
					dir[ai] = vio[ai][qi]
				}
			}
			checkIDSet(t, fmt.Sprintf("refreshed q=%d %v", qi, mode), refreshed.IDs, self, dir, p.Epsilon, tol)
		}
	}
}
