package index

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"tind/internal/bitmatrix"
	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/timeline"
	"tind/internal/values"
)

// topKReference is top-k without its threshold stop: every reached pair
// swept, on GOMAXPROCS goroutines, the pairs outside the key reach decided
// in closed form, and the first K of all of them in RankOrder. The
// threshold stop is held to it.
func topKReference(x *Index, q *history.History, o QueryOptions) ([]Ranked, error) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	ar := x.pool.getArena(x.ds.Len())
	defer x.pool.putArena(ar)
	r := &ar.run
	*r = queryRun{x: x, mode: ModeForward, start: time.Now(), ar: ar}
	p := core.Params{Epsilon: math.Inf(1), Delta: o.Params.Delta, Weight: o.Params.Weight}
	var st QueryStats
	hits, err := r.searchHits(context.Background(), q, p, false, &st)
	if err != nil {
		return nil, err
	}
	ranked := slices.Clone(hits)
	slices.SortFunc(ranked, RankOrder)
	return ranked[:min(o.K, len(ranked))], nil
}

// checkBounds holds top-k's lower bound to its promise for every stride-th
// query attribute of x, under every weight family at δ ∈ {0, 7}: for each
// pair inside the key reach, lb is at most the exact weight CheckPrepared
// returns, compared as float64 values. It returns how many pairs it
// checked and how many bounds a Bloom false positive cut short of the sum
// over every version the right-hand side lacks a value of.
func checkBounds(t *testing.T, x *Index, stride int) (pairs, dropped int) {
	t.Helper()
	ds := x.ds
	ar := x.pool.getArena(ds.Len())
	defer x.pool.putArena(ar)
	r := &queryRun{x: x, ar: ar}
	n := ds.Horizon()
	var s core.Scratch
	var pq core.Prepared
	for wname, w := range weightFamilies(t, n) {
		for qi := 0; qi < ds.Len(); qi += stride {
			q := ds.Attr(history.AttrID(qi))
			cand := bitmatrix.NewVecFull(ds.Len())
			x.excludeSelf(q, cand)
			pq.Prepare(q, w)
			reach := r.keyReach(q, n, cand)
			if err := r.lowerBounds(context.Background(), q, &pq, n, reach); err != nil {
				t.Fatal(err)
			}
			for _, e := range r.boundQueue(reach) {
				a := ds.Attr(e.ID)
				for _, delta := range []timeline.Time{0, 7} {
					p := core.Params{Epsilon: math.Inf(1), Delta: delta, Weight: w}
					exact, _, err := s.CheckPrepared(context.Background(), &pq, a, p)
					if err != nil {
						t.Fatal(err)
					}
					if e.Violation > exact {
						t.Fatalf("%s δ=%d: %d ⊆ %d has lower bound %v above its exact weight %v",
							wname, delta, q.ID(), a.ID(), e.Violation, exact)
					}
				}
				var lacking float64
				for i := range q.NumVersions() {
					qv := q.Version(i).Values
					if !qv.IsEmpty() && !q.Validity(i).Clamp(n).IsEmpty() && !qv.SubsetOf(a.AllValues()) {
						lacking += pq.Sum(i)
					}
				}
				if e.Violation != lacking {
					dropped++
				}
				pairs++
			}
			if slices.ContainsFunc(ar.lb, func(v float64) bool { return v != 0 }) {
				t.Fatalf("%s: query %d leaves lower bounds behind", wname, q.ID())
			}
		}
	}
	return pairs, dropped
}

// TestTopKBoundBelowExactWeight pins the lower bound top-k orders the
// reached pairs by (DESIGN §5.1): never above the exact weight, on a
// generated corpus and on random ones with a tiny Bloom shape, where false
// positives drop terms from the bound, and again after a Refresh that
// appends versions holding values interned after the build.
func TestTopKBoundBelowExactWeight(t *testing.T) {
	c, err := datagen.Generate(datagen.Config{Seed: 42, Attributes: 300, Horizon: 800})
	if err != nil {
		t.Fatal(err)
	}
	x := buildTestIndex(t, c.Dataset, DefaultOptions(c.Dataset.Horizon()))
	if pairs, _ := checkBounds(t, x, 13); pairs == 0 {
		t.Fatal("the generated corpus reached no pair")
	}

	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			horizon := timeline.Time(60 + r.Intn(40))
			ds := randDataset(r, 40, horizon)
			opt := DefaultOptions(horizon)
			opt.Bloom = bloom.Params{M: 64, K: 1}
			x := buildTestIndex(t, ds, opt)
			pairs, dropped := checkBounds(t, x, 1)

			newHorizon := horizon + 20
			if err := ds.ExtendHorizon(newHorizon); err != nil {
				t.Fatal(err)
			}
			var changed []history.AttrID
			for _, h := range ds.Attrs() {
				if r.Intn(2) == 0 {
					continue
				}
				vs := values.NewSet(values.Value(1000+r.Intn(3)), values.Value(r.Intn(20)))
				if err := h.Append(h.ObservedUntil()+timeline.Time(r.Intn(5)), vs, newHorizon); err != nil {
					t.Fatal(err)
				}
				changed = append(changed, h.ID())
			}
			if err := x.Refresh(changed, newHorizon); err != nil {
				t.Fatal(err)
			}
			p, d := checkBounds(t, x, 1)
			if pairs, dropped = pairs+p, dropped+d; dropped == 0 {
				t.Fatalf("no false positive cut a bound short in %d pairs; the Bloom shape does not exercise them", pairs)
			}
		})
	}
}
