package index

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tind/internal/bitmatrix"
	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/oracle"
	"tind/internal/timeline"
	"tind/internal/values"
)

// TestClosedFormEnBlocEdges holds the closed form of the key probe, which
// decides every candidate outside the reach at once (DESIGN §5.1), to the
// oracle at its edges, under uniform and decay weights at δ ∈ {0, 7}:
//   - a forward query with an empty R_ε(Q) and MaxViolation(Q) ≤ ε, whose
//     unreached hits merge with the validated ones in ascending id order;
//   - top-k with fewer than K reached attributes, where the unreached fill
//     the ranking by id;
//   - a reached attribute that weighs exactly MaxViolation(Q), tying with
//     unreached ones by id, with K cut just after it;
//   - an ad-hoc query of values no attribute holds, whose reach is empty.
//
// A small Bloom shape lets false positives into the reach. A ranking
// must equal the sweep's, id for id and bit for bit, and each weight the
// oracle's within tol: the oracle's per-timestamp sums order near-ties
// under decay weights by their last bits, which are not the sweep's.
func TestClosedFormEnBlocEdges(t *testing.T) {
	const horizon = timeline.Time(80)
	ds := randDataset(rand.New(rand.NewSource(3)), 60, horizon)
	opt := DefaultOptions(horizon)
	opt.Bloom = bloom.Params{M: 128, K: 2}
	x := buildTestIndex(t, ds, opt)
	b := history.NewBuilder(history.Meta{Page: "ad hoc"})
	b.Observe(5, values.NewSet(1000, 1001))
	b.Observe(40, values.NewSet(1002))
	fresh, err := b.Build(horizon)
	if err != nil {
		t.Fatal(err)
	}
	queries := append(ds.Attrs(), fresh)

	weights := keyProbeWeights(t, horizon)
	for _, wname := range []string{"uniform", "expdecay", "lineardecay"} {
		w := weights[wname]
		tol := 1e-9 * (1 + w.Sum(timeline.NewInterval(0, horizon)))
		for _, delta := range []timeline.Time{0, 7} {
			t.Run(fmt.Sprintf("%s/delta=%d", wname, delta), func(t *testing.T) {
				p := core.Params{Delta: delta, Weight: w}
				var merged, short, ties int
				for _, q := range queries {
					reach := keyReachOf(x, q)
					reached := reach.Count()
					unreached := ds.Len() - reached
					if q != fresh {
						unreached--
					}
					maxVio := core.MaxViolation(q, w)
					if q == fresh && reached != 0 {
						t.Fatalf("an ad-hoc query of fresh values reaches %d attributes", reached)
					}

					// Forward, ε ≥ MaxViolation(Q): R_ε(Q) is empty, and
					// every unreached candidate joins the hits.
					fp := p
					fp.Epsilon = maxVio + tol
					res, err := x.Query(context.Background(), q, QueryOptions{Params: fp})
					if err != nil {
						t.Fatal(err)
					}
					if want := oracle.ForwardSet(ds, q, fp); !slices.Equal(res.IDs, want) {
						t.Fatalf("forward q=%d ε=%v: %v, oracle %v", q.ID(), fp.Epsilon, res.IDs, want)
					}
					if reached > 0 && unreached > 0 {
						merged++
					}

					ranking := bruteTopK(ds, q, delta, w, ds.Len())
					// Fewer than K reached: the unreached fill the rest.
					if k := reached + 3; k < len(ranking) && unreached >= 3 {
						checkRanking(t, x, q, p, k, ranking, tol)
						short++
					}
					// Cut K right after a reached attribute of weight
					// MaxViolation(Q) that an unreached one precedes.
					firstUnreached := -1
					for i, e := range ranking {
						if !reach.Get(int(e.ID)) {
							if firstUnreached < 0 {
								firstUnreached = i
							}
							continue
						}
						if firstUnreached >= 0 && math.Float64bits(e.Violation) == math.Float64bits(maxVio) {
							checkRanking(t, x, q, p, i+1, ranking, tol)
							ties++
							break
						}
					}
					if q == fresh {
						checkRanking(t, x, q, p, 5, ranking, tol)
					}
				}
				if merged == 0 || short == 0 || ties == 0 {
					t.Fatalf("the corpus exercised %d merges, %d short reaches and %d ties; each edge needs one",
						merged, short, ties)
				}
			})
		}
	}
}

// keyReachOf is q's key reach over every other attribute, as top-k's scan
// probes it.
func keyReachOf(x *Index, q *history.History) *bitmatrix.Vec {
	ar := x.pool.getArena(x.ds.Len())
	defer x.pool.putArena(ar)
	cand := bitmatrix.NewVecFull(x.ds.Len())
	x.excludeSelf(q, cand)
	return (&queryRun{x: x, ar: ar}).keyReach(q, x.ds.Horizon(), cand).Clone()
}

// checkRanking runs top-k for q and holds it to the first k of ranking,
// entry for entry, and each weight to the oracle's within tol.
func checkRanking(t *testing.T, x *Index, q *history.History, p core.Params, k int, ranking []Ranked, tol float64) {
	t.Helper()
	got, err := topK(x, q, p.Delta, p.Weight, k)
	if err != nil {
		t.Fatal(err)
	}
	want := ranking[:min(k, len(ranking))]
	if len(got) != len(want) {
		t.Fatalf("top-%d q=%d: %d ranked, want %d", k, q.ID(), len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("top-%d q=%d rank %d: %+v, sweep %+v", k, q.ID(), i, got[i], want[i])
		}
		if o := oracle.ViolationWeight(q, x.ds.Attr(got[i].ID), p); math.Abs(got[i].Violation-o) > tol {
			t.Fatalf("top-%d q=%d rank %d: %+v, oracle weight %v", k, q.ID(), i, got[i], o)
		}
	}
}
