package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/oracle"
	"tind/internal/timeline"
	"tind/internal/values"
)

// This file is the scatter-gather differential harness: for shard counts
// {1, 2, 4, 8} the ShardedIndex must agree with the monolithic
// index.Index bit-for-bit (both run the same validation code over the
// same histories) and with the exhaustive oracle enumerators modulo the
// borderline band, for every query mode plus all-pairs discovery. The
// corpora are seeded so that discovered pairs straddle shard boundaries
// — a merge bug that only surfaces when LHS and RHS live on different
// shards cannot hide.

var shardCounts = []int{1, 2, 4, 8}

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

// vioMatrix computes the oracle violation weight for every ordered
// attribute pair, the shared ground truth for all query modes.
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

// checkIDSet asserts got ⊇ {a : vio[a] < ε−tol} and got ⊆ {a : vio[a] ≤
// ε+tol}, i.e. exactness modulo the borderline band.
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

// checkTopK asserts the gathered ranking is ascending, reports violation
// weights agreeing with the oracle, and is a true top-k modulo ties
// within tol.
func checkTopK(t *testing.T, label string, got []index.Ranked, self history.AttrID,
	vio []float64, k int, tol float64) {
	t.Helper()
	want := make([]float64, 0, len(vio)-1)
	for a := range vio {
		if history.AttrID(a) != self {
			want = append(want, vio[a])
		}
	}
	sort.Float64s(want)
	n := k
	if n > len(want) {
		n = len(want)
	}
	if len(got) != n {
		t.Fatalf("%s: got %d ranked results, want %d", label, len(got), n)
	}
	for i, r := range got {
		if r.ID == self {
			t.Fatalf("%s: ranking contains the query attribute %d", label, self)
		}
		if math.Abs(r.Violation-vio[r.ID]) > tol {
			t.Fatalf("%s: rank %d reports violation %g for %d, oracle says %g",
				label, i, r.Violation, r.ID, vio[r.ID])
		}
		if i > 0 && got[i-1].Violation > r.Violation+tol {
			t.Fatalf("%s: ranking not ascending at %d: %g after %g", label, i, r.Violation, got[i-1].Violation)
		}
		if r.Violation > want[i]+tol {
			t.Fatalf("%s: rank %d has violation %g, true %d-th smallest is %g",
				label, i, r.Violation, i, want[i])
		}
	}
}

// buildPair builds the monolith and the n-shard partition over the same
// dataset with the issue's partitioned options.
func buildPair(t *testing.T, ds *history.Dataset, monoOpt index.Options, n int, seed int64) (*index.Index, *ShardedIndex) {
	t.Helper()
	mono, err := index.Build(ds, monoOpt)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := Build(ds, Options{Shards: n, Seed: seed, Index: PartitionOptions(monoOpt, n)})
	if err != nil {
		t.Fatal(err)
	}
	return mono, sx
}

// TestShardedMatchesMonolithAndOracle is the core scatter-gather
// differential: under a uniform weight every violation weight is an
// exact small integer, so the sharded index, the monolith and the oracle
// must agree bit-for-bit — forward, reverse, top-k and all-pairs — for
// every shard count. The ε is deliberately fractional so no pair can sit
// exactly on the threshold.
func TestShardedMatchesMonolithAndOracle(t *testing.T) {
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

	for _, n := range shardCounts {
		n := n
		t.Run(fmt.Sprintf("shards%d", n), func(t *testing.T) {
			t.Parallel()
			mono, sx := buildPair(t, ds, monoOpt, n, 77)

			for qi := 0; qi < ds.Len(); qi++ {
				self := history.AttrID(qi)
				q := ds.Attr(self)
				for _, mode := range []index.Mode{index.ModeForward, index.ModeReverse} {
					sres, err := sx.Query(ctx, q, index.QueryOptions{Mode: mode, Params: p})
					if err != nil {
						t.Fatal(err)
					}
					mres, err := mono.Query(ctx, q, index.QueryOptions{Mode: mode, Params: p})
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(sres.IDs) != fmt.Sprint(mres.IDs) {
						t.Fatalf("q=%d %v: sharded %v, monolith %v", qi, mode, sres.IDs, mres.IDs)
					}
					if sres.Stats.Results != len(sres.IDs) {
						t.Fatalf("q=%d %v: merged Stats.Results %d, |IDs| %d",
							qi, mode, sres.Stats.Results, len(sres.IDs))
					}
					dir := vio[qi]
					if mode == index.ModeReverse {
						dir = make([]float64, ds.Len())
						for ai := 0; ai < ds.Len(); ai++ {
							dir[ai] = vio[ai][qi]
						}
					}
					checkIDSet(t, fmt.Sprintf("q=%d %v", qi, mode), sres.IDs, self, dir, p.Epsilon, tol)
				}
			}

			// Top-k: the gathered K-way merge breaks ties by (violation,
			// global id), the monolith's order, so equality is exact.
			for _, qi := range []int{0, ds.Len() / 2, ds.Len() - 1} {
				self := history.AttrID(qi)
				for _, k := range []int{1, 3, ds.Len()} {
					sres, err := sx.Query(ctx, ds.Attr(self), index.QueryOptions{
						Mode: index.ModeTopK, Params: p, K: k,
					})
					if err != nil {
						t.Fatal(err)
					}
					mres, err := mono.Query(ctx, ds.Attr(self), index.QueryOptions{
						Mode: index.ModeTopK, Params: p, K: k,
					})
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(sres.Ranked) != fmt.Sprint(mres.Ranked) {
						t.Fatalf("q=%d k=%d: sharded %v, monolith %v", qi, k, sres.Ranked, mres.Ranked)
					}
					checkTopK(t, fmt.Sprintf("topk q=%d k=%d", qi, k), sres.Ranked, self, vio[qi], k, tol)
				}
			}

			// All-pairs discovery: blocks through the batch scatter must emit the
			// monolith's exact pair set in the monolith's order, and the
			// oracle's.
			spairs, err := sx.AllPairsContext(ctx, p, 3)
			if err != nil {
				t.Fatal(err)
			}
			mpairs, err := mono.AllPairsContext(ctx, p, 2)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(spairs) != fmt.Sprint(mpairs) {
				t.Fatalf("all-pairs: sharded %v, monolith %v", spairs, mpairs)
			}
			want := oracle.AllPairs(ds, p)
			if len(spairs) != len(want) {
				t.Fatalf("all-pairs: sharded found %d pairs, oracle %d", len(spairs), len(want))
			}
			for i := range want {
				if spairs[i].LHS != want[i].LHS || spairs[i].RHS != want[i].RHS {
					t.Fatalf("all-pairs[%d]: sharded %v, oracle %v", i, spairs[i], want[i])
				}
			}
			if len(spairs) == 0 {
				t.Fatal("corpus produced no pairs; the differential is vacuous")
			}

			// The merge must be exercised across shard boundaries: with
			// n ≥ 2 at least one discovered pair's endpoints must live on
			// different shards, otherwise reshape the corpus.
			if n >= 2 {
				straddles := 0
				for _, pr := range spairs {
					if sx.ShardOwner(pr.LHS) != sx.ShardOwner(pr.RHS) {
						straddles++
					}
				}
				if straddles == 0 {
					t.Fatalf("no discovered pair straddles a shard boundary (%d pairs)", len(spairs))
				}
				t.Logf("shards=%d: %d/%d pairs straddle shard boundaries", n, straddles, len(spairs))
			}
		})
	}
}

// TestShardedDecayWeight repeats the differential under a non-constant
// exponential-decay weight, where float summation order matters: the
// comparison against the oracle uses the borderline band, and the exact
// sharded-vs-monolith comparison skips queries with a borderline pair
// (either answer is acceptable there).
func TestShardedDecayWeight(t *testing.T) {
	const horizon = timeline.Time(96)
	ds := genDataset(t, 902, 18, horizon)
	w, err := timeline.NewExponentialDecay(horizon, 0.97)
	if err != nil {
		t.Fatal(err)
	}
	total := w.Sum(timeline.NewInterval(0, horizon))
	p := core.Params{Epsilon: 0.05 * total, Delta: 1, Weight: w}
	monoOpt := index.Options{
		Bloom:   bloom.Params{M: 256, K: 2},
		Slices:  6,
		Params:  p,
		Reverse: true,
		Seed:    902,
	}
	tol := diffTol(w)
	vio := vioMatrix(ds, p)
	borderline := func(dir []float64, self int) bool {
		for ai := range dir {
			if ai != self && math.Abs(dir[ai]-p.Epsilon) <= tol {
				return true
			}
		}
		return false
	}
	ctx := context.Background()

	for _, n := range []int{2, 4, 8} {
		n := n
		t.Run(fmt.Sprintf("shards%d", n), func(t *testing.T) {
			t.Parallel()
			mono, sx := buildPair(t, ds, monoOpt, n, 13)
			for qi := 0; qi < ds.Len(); qi++ {
				self := history.AttrID(qi)
				q := ds.Attr(self)
				for _, mode := range []index.Mode{index.ModeForward, index.ModeReverse} {
					dir := vio[qi]
					if mode == index.ModeReverse {
						dir = make([]float64, ds.Len())
						for ai := 0; ai < ds.Len(); ai++ {
							dir[ai] = vio[ai][qi]
						}
					}
					sres, err := sx.Query(ctx, q, index.QueryOptions{Mode: mode, Params: p})
					if err != nil {
						t.Fatal(err)
					}
					checkIDSet(t, fmt.Sprintf("q=%d %v", qi, mode), sres.IDs, self, dir, p.Epsilon, tol)
					if borderline(dir, qi) {
						continue
					}
					mres, err := mono.Query(ctx, q, index.QueryOptions{Mode: mode, Params: p})
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(sres.IDs) != fmt.Sprint(mres.IDs) {
						t.Fatalf("q=%d %v: sharded %v, monolith %v", qi, mode, sres.IDs, mres.IDs)
					}
				}
				sres, err := sx.Query(ctx, q, index.QueryOptions{Mode: index.ModeTopK, Params: p, K: 5})
				if err != nil {
					t.Fatal(err)
				}
				checkTopK(t, fmt.Sprintf("topk q=%d", qi), sres.Ranked, self, vio[qi], 5, tol)
			}
		})
	}
}

// TestShardedRefreshMatchesRebuild: evolve the corpus (value drops,
// foreign-value injections, pure observation extensions), refresh the
// partition, and demand exact agreement with a freshly
// built partition AND the refreshed monolith over the evolved dataset —
// and band agreement with the oracle. Also pins that every shard's slice
// matrices equal a fresh fill over its current histories.
func TestShardedRefreshMatchesRebuild(t *testing.T) {
	const (
		oldHorizon = timeline.Time(80)
		newHorizon = timeline.Time(100)
		nShards    = 4
	)
	ds := genDataset(t, 903, 16, oldHorizon)
	monoOpt := index.Options{
		Bloom:   bloom.Params{M: 256, K: 2},
		Slices:  8,
		Params:  core.Params{Epsilon: 3.5, Delta: 2, Weight: timeline.Uniform(oldHorizon)},
		Reverse: true,
		Seed:    903,
	}
	mono, sx := buildPair(t, ds, monoOpt, nShards, 5)

	if err := ds.ExtendHorizon(newHorizon); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(903))
	var changed []history.AttrID
	for id := 0; id < ds.Len(); id++ {
		h := ds.Attr(history.AttrID(id))
		if r.Intn(3) == 0 {
			continue // left alone: unobservable on the new days
		}
		start := h.ObservedUntil()
		switch r.Intn(3) {
		case 0:
			if err := h.ExtendObservation(newHorizon); err != nil {
				t.Fatal(err)
			}
		case 1:
			vals := h.At(start - 1)
			donor := ds.Attr(history.AttrID(r.Intn(ds.Len()))).AllValues()
			if donor.Len() > 0 {
				vals = vals.Union(values.NewSet(donor[r.Intn(donor.Len())]))
			}
			if err := h.Append(start, vals, newHorizon); err != nil {
				t.Fatal(err)
			}
		default:
			vals := h.At(start - 1)
			if vals.Len() > 1 {
				vals = vals[:vals.Len()-1]
			}
			if err := h.Append(start, vals, newHorizon); err != nil {
				t.Fatal(err)
			}
		}
		changed = append(changed, history.AttrID(id))
	}
	if len(changed) == 0 {
		t.Fatal("no attributes changed; refresh differential is vacuous")
	}
	if err := sx.Refresh(changed, newHorizon); err != nil {
		t.Fatal(err)
	}
	if err := mono.Refresh(changed, newHorizon); err != nil {
		t.Fatal(err)
	}

	for s := 0; s < nShards; s++ {
		if err := sx.Shard(s).CheckSlices(); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
	}
	if err := mono.CheckSlices(); err != nil {
		t.Fatalf("monolith: %v", err)
	}

	rebuiltOpt := monoOpt
	rebuiltOpt.Params.Weight = timeline.Uniform(newHorizon)
	rebuilt, err := Build(ds, Options{Shards: nShards, Seed: 5, Index: PartitionOptions(rebuiltOpt, nShards)})
	if err != nil {
		t.Fatal(err)
	}

	p := core.Params{Epsilon: 3.5, Delta: 2, Weight: timeline.Uniform(newHorizon)}
	tol := diffTol(p.Weight)
	vio := vioMatrix(ds, p)
	ctx := context.Background()
	for qi := 0; qi < ds.Len(); qi++ {
		self := history.AttrID(qi)
		q := ds.Attr(self)
		for _, mode := range []index.Mode{index.ModeForward, index.ModeReverse} {
			a, err := sx.Query(ctx, q, index.QueryOptions{Mode: mode, Params: p})
			if err != nil {
				t.Fatal(err)
			}
			b, err := rebuilt.Query(ctx, q, index.QueryOptions{Mode: mode, Params: p})
			if err != nil {
				t.Fatal(err)
			}
			m, err := mono.Query(ctx, q, index.QueryOptions{Mode: mode, Params: p})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(a.IDs) != fmt.Sprint(b.IDs) {
				t.Fatalf("q=%d %v: refreshed partition %v, rebuilt partition %v", qi, mode, a.IDs, b.IDs)
			}
			if fmt.Sprint(a.IDs) != fmt.Sprint(m.IDs) {
				t.Fatalf("q=%d %v: refreshed partition %v, refreshed monolith %v", qi, mode, a.IDs, m.IDs)
			}
			dir := vio[qi]
			if mode == index.ModeReverse {
				dir = make([]float64, ds.Len())
				for ai := 0; ai < ds.Len(); ai++ {
					dir[ai] = vio[ai][qi]
				}
			}
			checkIDSet(t, fmt.Sprintf("refreshed q=%d %v", qi, mode), a.IDs, self, dir, p.Epsilon, tol)
		}
	}
}

// TestShardedBuildRejectsBadOptions: shard counts below 1 are invalid
// options, typed like the index's own option errors.
func TestShardedBuildRejectsBadOptions(t *testing.T) {
	ds := genDataset(t, 904, 4, 50)
	opt := index.Options{
		Bloom:  bloom.Params{M: 64, K: 2},
		Params: core.Params{Epsilon: 1, Delta: 0, Weight: timeline.Uniform(50)},
		Seed:   904,
	}
	for _, shards := range []int{0, -3} {
		_, err := Build(ds, Options{Shards: shards, Index: opt})
		if !errors.Is(err, index.ErrInvalidOptions) {
			t.Fatalf("Shards=%d: got %v, want ErrInvalidOptions", shards, err)
		}
	}
}

// TestShardedRefreshRejects: horizon mismatches and out-of-range ids are
// rejected before any shard is touched.
func TestShardedRefreshRejects(t *testing.T) {
	const horizon = timeline.Time(60)
	ds := genDataset(t, 905, 8, horizon)
	opt := index.Options{
		Bloom:  bloom.Params{M: 128, K: 2},
		Slices: 2,
		Params: core.Params{Epsilon: 2, Delta: 1, Weight: timeline.Uniform(horizon)},
		Seed:   905,
	}
	sx, err := Build(ds, Options{Shards: 2, Seed: 1, Index: opt})
	if err != nil {
		t.Fatal(err)
	}
	if err := sx.Refresh(nil, horizon+5); err == nil {
		t.Fatal("Refresh must reject a newHorizon the dataset was not extended to")
	}
	if err := sx.Refresh([]history.AttrID{history.AttrID(ds.Len())}, horizon); err == nil {
		t.Fatal("Refresh must reject out-of-range attribute ids")
	}
	// Sanity: after the rejected calls the partition still answers.
	if _, err := sx.Query(context.Background(), ds.Attr(0), index.QueryOptions{
		Mode: index.ModeForward, Params: opt.Params,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedCancellation: a canceled context surfaces the index
// package's typed error through the scatter legs and all-pairs blocks.
func TestShardedCancellation(t *testing.T) {
	const horizon = timeline.Time(60)
	ds := genDataset(t, 906, 8, horizon)
	p := core.Params{Epsilon: 2, Delta: 1, Weight: timeline.Uniform(horizon)}
	sx, err := Build(ds, Options{Shards: 2, Seed: 1, Index: index.Options{
		Bloom:  bloom.Params{M: 128, K: 2},
		Slices: 2,
		Params: p,
		Seed:   906,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sx.Query(ctx, ds.Attr(0), index.QueryOptions{Mode: index.ModeForward, Params: p}); !errors.Is(err, index.ErrCanceled) {
		t.Fatalf("Query on canceled context: got %v, want ErrCanceled", err)
	}
	if _, err := sx.AllPairsContext(ctx, p, 2); !errors.Is(err, index.ErrCanceled) {
		t.Fatalf("AllPairsContext on canceled context: got %v, want ErrCanceled", err)
	}
}
