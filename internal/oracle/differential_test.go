package oracle

import (
	"fmt"
	"math"
	"testing"

	"tind/internal/core"
	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/timeline"
)

// This file holds the core-vs-oracle half of the differential harness:
// internal/core's interval-partitioned validation (Algorithm 2) against
// the per-timestamp oracle, over seeded datagen corpora. The two sides
// sum the same per-day weights in different orders, so weights are
// compared with a relative tolerance and boolean decisions are skipped
// in the tolerance band around ε (a "borderline" pair — both answers
// are defensible under float arithmetic, and the band is ~1e-9 of the
// total weight, far below any semantic difference).

// diffTol returns the comparison tolerance for a weight function: a
// relative epsilon scaled by the largest sum either side can produce.
func diffTol(w timeline.WeightFunc) float64 {
	total := w.Sum(timeline.NewInterval(0, w.Horizon()))
	return 1e-9 * (1 + total)
}

// genDataset generates a small corpus with the given seed.
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

// diffWeights builds one instance of every weight family at horizon n.
// The prefix-sum table zeroes out a band of days, exercising the paper's
// "disregard certain time periods" case.
func diffWeights(tb testing.TB, n timeline.Time) map[string]timeline.WeightFunc {
	tb.Helper()
	ed, err := timeline.NewExponentialDecay(n, 0.97)
	if err != nil {
		tb.Fatal(err)
	}
	table := make([]float64, n)
	for t := range table {
		table[t] = 0.5 + float64((t*7)%10)/10
	}
	for t := n / 4; t < n/4+n/10; t++ {
		table[t] = 0
	}
	ps, err := timeline.NewPrefixSum(table)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]timeline.WeightFunc{
		"uniform":     timeline.Uniform(n),
		"relative":    timeline.Relative(n),
		"expdecay":    ed,
		"lineardecay": timeline.LinearDecay{N: n, W0: 0.25, W1: 1.75},
		"prefixsum":   ps,
	}
}

// TestCoreMatchesOracle sweeps (weight family × ε × δ) grids over seeded
// corpora and demands that core's ViolationWeight, Holds, Explain and the
// σ-partial variants agree with the per-timestamp oracle on every
// attribute pair.
func TestCoreMatchesOracle(t *testing.T) {
	grids := []struct {
		share float64 // ε as a share of the total weight
		delta timeline.Time
	}{
		{0, 0},
		{0.02, 0},
		{0.02, 2},
		{0.1, 7},
	}
	for _, seed := range []int64{3, 17, 42} {
		const horizon = timeline.Time(100)
		ds := genDataset(t, seed, 12, horizon)
		attrs := ds.Attrs()
		for name, w := range diffWeights(t, horizon) {
			tol := diffTol(w)
			total := w.Sum(timeline.NewInterval(0, horizon))
			for _, g := range grids {
				p := core.Params{Epsilon: g.share * total, Delta: g.delta, Weight: w}
				t.Run(fmt.Sprintf("seed%d/%s/share%g/delta%d", seed, name, g.share, g.delta), func(t *testing.T) {
					for qi, q := range attrs {
						for ai, a := range attrs {
							if ai == qi {
								continue
							}
							oraVW := ViolationWeight(q, a, p)
							coreVW := core.ViolationWeight(q, a, p)
							if math.Abs(oraVW-coreVW) > tol {
								t.Fatalf("pair (%d,%d): core ViolationWeight = %g, oracle = %g",
									qi, ai, coreVW, oraVW)
							}
							// Boolean decisions only away from the ε border.
							if math.Abs(oraVW-p.Epsilon) > tol {
								if got, want := core.Holds(q, a, p), Holds(q, a, p); got != want {
									t.Fatalf("pair (%d,%d): core Holds = %v, oracle = %v (vw %g, ε %g)",
										qi, ai, got, want, oraVW, p.Epsilon)
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestExplainMatchesOracle: core.Explain's maximal violated intervals must
// be exactly the oracle's per-timestamp runs, with matching weights that
// sum back to the total violation weight.
func TestExplainMatchesOracle(t *testing.T) {
	const horizon = timeline.Time(100)
	ds := genDataset(t, 7, 12, horizon)
	attrs := ds.Attrs()
	for name, w := range diffWeights(t, horizon) {
		tol := diffTol(w)
		for _, delta := range []timeline.Time{0, 3} {
			p := core.Params{Epsilon: 0, Delta: delta, Weight: w}
			t.Run(fmt.Sprintf("%s/delta%d", name, delta), func(t *testing.T) {
				for qi, q := range attrs {
					for ai, a := range attrs {
						if ai == qi {
							continue
						}
						want := Violations(q, a, p)
						got := core.Explain(q, a, p)
						if len(got) != len(want) {
							t.Fatalf("pair (%d,%d): core Explain has %d runs, oracle %d\ncore: %+v\noracle: %+v",
								qi, ai, len(got), len(want), got, want)
						}
						var sum float64
						for i := range want {
							if got[i].Interval != want[i].Interval {
								t.Fatalf("pair (%d,%d) run %d: core interval %v, oracle %v",
									qi, ai, i, got[i].Interval, want[i].Interval)
							}
							if math.Abs(got[i].Weight-want[i].Weight) > tol {
								t.Fatalf("pair (%d,%d) run %d: core weight %g, oracle %g",
									qi, ai, i, got[i].Weight, want[i].Weight)
							}
							sum += got[i].Weight
						}
						if vw := ViolationWeight(q, a, p); math.Abs(sum-vw) > tol {
							t.Fatalf("pair (%d,%d): Explain runs sum to %g, ViolationWeight = %g",
								qi, ai, sum, vw)
						}
					}
				}
			})
		}
	}
}

// TestPartialMatchesOracle covers the σ-partial containment diagnostic.
// core checks it per day (partial.go), so this compares two naive paths.
func TestPartialMatchesOracle(t *testing.T) {
	const horizon = timeline.Time(100)
	ds := genDataset(t, 23, 12, horizon)
	attrs := ds.Attrs()
	w := timeline.Uniform(horizon)
	tol := diffTol(w)
	for _, sigma := range []float64{0.5, 0.8, 1} {
		for _, delta := range []timeline.Time{0, 2} {
			p := core.Params{Epsilon: 4, Delta: delta, Weight: w}
			t.Run(fmt.Sprintf("sigma%g/delta%d", sigma, delta), func(t *testing.T) {
				for qi, q := range attrs {
					for ai, a := range attrs {
						if ai == qi {
							continue
						}
						want := ViolationWeightPartial(q, a, p, sigma)
						got, err := core.ViolationWeightPartial(q, a, p, sigma, false)
						if err != nil {
							t.Fatal(err)
						}
						if math.Abs(got-want) > tol {
							t.Fatalf("pair (%d,%d): core partial vw = %g, oracle = %g",
								qi, ai, got, want)
						}
						if math.Abs(want-p.Epsilon) > tol {
							gotH, err := core.HoldsPartial(q, a, p, sigma)
							if err != nil {
								t.Fatal(err)
							}
							if wantH := HoldsPartial(q, a, p, sigma); gotH != wantH {
								t.Fatalf("pair (%d,%d): core HoldsPartial = %v, oracle = %v",
									qi, ai, gotH, wantH)
							}
						}
					}
				}
			})
		}
	}
}

// TestNaiveCoreMatchesOracle pins core's own reference paths (HoldsNaive,
// ViolationWeightNaive) to the oracle too — three independent
// implementations agreeing is the strongest signal the definitions are
// actually what everyone computes.
func TestNaiveCoreMatchesOracle(t *testing.T) {
	const horizon = timeline.Time(100)
	ds := genDataset(t, 31, 10, horizon)
	attrs := ds.Attrs()
	w := timeline.Uniform(horizon)
	tol := diffTol(w)
	p := core.Params{Epsilon: 3, Delta: 2, Weight: w}
	for qi, q := range attrs {
		for ai, a := range attrs {
			if ai == qi {
				continue
			}
			want := ViolationWeight(q, a, p)
			if got := core.ViolationWeightNaive(q, a, p); math.Abs(got-want) > tol {
				t.Fatalf("pair (%d,%d): core naive vw = %g, oracle = %g", qi, ai, got, want)
			}
			if math.Abs(want-p.Epsilon) > tol {
				if got, wantH := core.HoldsNaive(q, a, p), Holds(q, a, p); got != wantH {
					t.Fatalf("pair (%d,%d): core HoldsNaive = %v, oracle = %v", qi, ai, got, wantH)
				}
			}
		}
	}
}
