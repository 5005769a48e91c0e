package index

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"tind/internal/core"
	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/oracle"
	"tind/internal/timeline"
)

// TestReverseFallbackEveryWeight holds the prefix phase to the oracle at
// the two boundaries its float slack decides, under every weight family,
// with ε above the index ε or a non-index weight so that M_R cannot serve
// the query:
//   - ε exactly on MaxViolation(A) of an attribute no posting of All(Q)
//     names. Every version of A is then violated whole, so its violation
//     is MaxViolation bit for bit and A must be returned;
//   - ε exactly on the violation of an attribute some posting names whose
//     violation is its bound MaxViolation(A) − covered(A), up to rounding
//     (else on the largest such bound). The bound sums in another order
//     than the validator and may round above ε: the slack must keep A.
//
// The oracle sums day by day, which rounds differently from an interval
// sum under the non-integer weights; where its violation lies within
// rounding of ε, the answer must be the validator's verdict instead.
func TestReverseFallbackEveryWeight(t *testing.T) {
	c, err := datagen.Generate(datagen.Config{Seed: 42, Attributes: 120, Horizon: 300})
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	x := buildTestIndex(t, ds, DefaultOptions(ds.Horizon()).ForReverse())
	ctx := context.Background()
	const delta = 10
	boundaries := 0
	for name, w := range weightFamilies(t, ds.Horizon()) {
		native := sameWeight(w, x.opt.Params.Weight)
		for _, qi := range []history.AttrID{0, 41, 97} {
			q := ds.Attr(qi)
			var untouched, touched, exact float64 = -1, -1, -1
			for a, h := range ds.Attrs() {
				if a == int(qi) {
					continue
				}
				mv := core.MaxViolation(h, w)
				cov := coveredWeight(x, h, q, w)
				bound := mv - cov
				if native && bound <= x.opt.Params.Epsilon || bound <= 0 {
					continue // M_R's regime, or nothing to decide
				}
				if cov == 0 {
					untouched = max(untouched, bound)
					continue
				}
				touched = max(touched, bound)
				p := core.Params{Epsilon: math.Inf(1), Delta: delta, Weight: w}
				if v := core.ViolationWeight(h, q, p); math.Abs(v-bound) <= prefixSlack*mv {
					exact = max(exact, v)
				}
			}
			if exact >= 0 {
				touched = exact
			}
			for _, eps := range []float64{untouched, touched} {
				if eps < 0 {
					continue
				}
				boundaries++
				p := core.Params{Epsilon: eps, Delta: delta, Weight: w}
				label := fmt.Sprintf("%s, query %d, ε %v", name, qi, eps)
				res, err := x.Query(ctx, q, QueryOptions{Mode: ModeReverse, Params: p})
				if err != nil {
					t.Fatal(err)
				}
				want := oracle.ReverseSet(ds, q, p)
				for a, h := range ds.Attrs() {
					id := history.AttrID(a)
					if id == qi {
						continue
					}
					got, holds := slices.Contains(res.IDs, id), slices.Contains(want, id)
					if got == holds {
						continue
					}
					if v := oracle.ViolationWeight(h, q, p); math.Abs(v-eps) <= 1e-9*(1+eps) {
						holds = core.ViolationWeight(h, q, p) <= eps
					}
					if got != holds {
						t.Errorf("%s: attribute %d reported %v, want %v", label, a, got, holds)
					}
				}
			}
		}
	}
	if boundaries == 0 {
		t.Fatal("no boundary found: the test decides nothing")
	}
}

// coveredWeight is covered(A) of the prefix phase, recomputed from the
// histories: the weight of A's non-empty versions whose indexed value
// All(Q) holds.
func coveredWeight(x *Index, a, q *history.History, w timeline.WeightFunc) float64 {
	var cov float64
	for i := range a.NumVersions() {
		if v := x.px.prefix(a.Version(i).Values); v != noPrefix && q.AllValues().Contains(v) {
			cov += w.Sum(a.Validity(i).Clamp(w.Horizon()))
		}
	}
	return cov
}
