package index_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/shard"
	"tind/internal/timeline"
	"tind/internal/values"
)

// tiesDataset builds n random attributes over a small vocabulary, each
// holding value 0 from its first version, every fifth starting with the
// version {0} alone: a key every attribute holds, so such a query reaches
// every other attribute and decides none in closed form. Three copies of
// each of the first dups attributes follow; copies tie against every
// query.
func tiesDataset(seed int64, n, dups int, horizon timeline.Time) *history.Dataset {
	r := rand.New(rand.NewSource(seed))
	ds := history.NewDataset(horizon)
	for i := range n {
		var vs []history.Version
		t := timeline.Time(r.Intn(int(horizon) / 4))
		if i%5 == 0 {
			vs = append(vs, history.Version{Start: t, Values: values.NewSet(0)})
			t += timeline.Time(1 + r.Intn(10))
		}
		for t < horizon-1 {
			ids := make([]values.Value, 1+r.Intn(4))
			for j := range ids {
				ids[j] = values.Value(1 + r.Intn(20))
			}
			v := values.NewSet(ids...)
			if len(vs) == 0 {
				v = v.Union(values.NewSet(0))
			}
			if len(vs) == 0 || !vs[len(vs)-1].Values.Equal(v) {
				vs = append(vs, history.Version{Start: t, Values: v})
			}
			t += timeline.Time(1 + r.Intn(int(horizon)/6))
		}
		h, err := history.New(history.Meta{Page: fmt.Sprint("p", i)}, vs, horizon)
		if err != nil {
			panic(err)
		}
		if _, err := ds.Add(h); err != nil {
			panic(err)
		}
	}
	for i := range dups {
		for range 3 {
			if _, err := ds.Add(ds.Attr(history.AttrID(i)).Clone()); err != nil {
				panic(err)
			}
		}
	}
	return ds
}

// sameRanking reports whether two rankings agree id for id and bit for bit.
func sameRanking(a, b []index.Ranked) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Violation) != math.Float64bits(b[i].Violation) {
			return false
		}
	}
	return true
}

// TestTopKThresholdStopMatchesFullScan holds top-k's threshold stop to the
// scan it replaced, which sweeps every pair in the key reach: the ranking
// must be the same, id for id and bit for bit, at K ∈ {1, 2, 10, 120,
// |D|−1} through Query, QueryBatch on one and two workers, and a
// Coordinator over three shards. Its edges:
//   - copies of an attribute that tie at the K-th place;
//   - fewer candidates outside the key reach (U) than K, and U empty;
//   - a reached attribute weighing exactly MaxViolation(Q), the weight of
//     every member of U, with a smaller id than some of them, with K cut
//     right after it.
func TestTopKThresholdStopMatchesFullScan(t *testing.T) {
	gen, err := datagen.Generate(datagen.Config{Seed: 42, Attributes: 300, Horizon: 800})
	if err != nil {
		t.Fatal(err)
	}
	const horizon = timeline.Time(120)
	ties := tiesDataset(5, 60, 6, horizon)
	tiny := index.DefaultOptions(horizon)
	tiny.Bloom = bloom.Params{M: 64, K: 2}
	exp, err := timeline.NewExponentialDecay(horizon, 0.97)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		ds     *history.Dataset
		opt    index.Options
		w      timeline.WeightFunc
		stride int
		edges  bool // the corpus must exercise every edge
	}{
		{"datagen", gen.Dataset, index.DefaultOptions(gen.Dataset.Horizon()), nil, 23, false},
		{"ties/uniform", ties, tiny, timeline.Uniform(horizon), 1, true},
		{"ties/expdecay", ties, tiny, exp, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := tc.ds
			x, err := index.Build(ds, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			sx, err := shard.Build(ds, shard.Options{Shards: 3, Seed: 1, Index: shard.PartitionOptions(tc.opt, 3)})
			if err != nil {
				t.Fatal(err)
			}
			w := tc.w
			if w == nil {
				w = x.Options().Params.Weight
			}
			params := core.Params{Delta: 7, Weight: w}
			ctx := context.Background()
			// Every query's list of K, the fixed ones plus its edge cuts.
			ks := make([][]int, ds.Len())
			var tiedCut, shortU, emptyU, uTies int
			for qi := 0; qi < ds.Len(); qi += tc.stride {
				q := ds.Attr(history.AttrID(qi))
				ks[qi] = []int{1, 2, 10, 120, ds.Len() - 1}
				full, err := index.TopKReference(x, q, index.QueryOptions{Mode: index.ModeTopK, Params: params, K: ds.Len()})
				if err != nil {
					t.Fatal(err)
				}
				reach := index.KeyReachOf(x, q)
				unreached := ds.Len() - 1 - reach.Count()
				switch {
				case unreached == 0:
					emptyU++
				case unreached < 120:
					shortU++
				}
				for _, k := range ks[qi] {
					if k < len(full) && full[k-1].Violation == full[k].Violation {
						tiedCut++
					}
				}
				maxVio := core.MaxViolation(q, w)
				lastUnreached := -1
				for i, e := range full {
					if !reach.Get(int(e.ID)) {
						lastUnreached = i
					}
				}
				for i, e := range full[:max(0, lastUnreached)] {
					if reach.Get(int(e.ID)) && math.Float64bits(e.Violation) == math.Float64bits(maxVio) {
						ks[qi] = append(ks[qi], i+1)
						uTies++
						break
					}
				}
			}
			if tc.edges && (tiedCut == 0 || shortU == 0 || emptyU == 0 || uTies == 0) {
				t.Fatalf("the corpus exercised %d ties at the K-th place, %d queries with 0 < |U| < 120, %d with U empty and %d reached ties with U; each edge needs one",
					tiedCut, shortU, emptyU, uTies)
			}

			for kind := range 4 {
				var batch []index.BatchQuery
				var want [][]index.Ranked
				for qi, qks := range ks {
					for _, k := range qks {
						o := index.QueryOptions{Mode: index.ModeTopK, Params: params, K: k}
						ref, err := index.TopKReference(x, ds.Attr(history.AttrID(qi)), o)
						if err != nil {
							t.Fatal(err)
						}
						batch = append(batch, index.BatchQuery{ByID: true, ID: history.AttrID(qi), Options: o})
						want = append(want, ref)
					}
				}
				var got []index.Result
				switch kind {
				case 0, 1:
					for _, b := range batch {
						var res index.Result
						if kind == 0 {
							res, err = x.Query(ctx, ds.Attr(b.ID), b.Options)
						} else {
							res, err = sx.Query(ctx, ds.Attr(b.ID), b.Options)
						}
						if err != nil {
							t.Fatal(err)
						}
						got = append(got, res)
					}
				default:
					if got, err = x.QueryBatch(ctx, batch, index.BatchOptions{Workers: kind - 1}); err != nil {
						t.Fatal(err)
					}
				}
				tier := [...]string{"Query", "Coordinator", "QueryBatch/1", "QueryBatch/2"}[kind]
				for i, res := range got {
					if !sameRanking(res.Ranked, want[i]) {
						t.Fatalf("%s: query %d K=%d ranks %v, the full scan %v",
							tier, batch[i].ID, batch[i].Options.K, res.Ranked, want[i])
					}
				}
			}
		})
	}
}
