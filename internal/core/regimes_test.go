package core_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"tind/internal/core"
	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/oracle"
	"tind/internal/timeline"
	"tind/internal/values"
)

// The sweep takes a different road through a pair depending on how much of
// Q's vocabulary A shares; each regime below is one road. The corpus must
// supply pairs for all four, or the test would pass without testing.
const (
	regimeDisjoint    = "disjoint"               // All(Q) ∩ All(A) = ∅: closed form, A never read
	regimeUncoverable = "shared-but-uncoverable" // values shared, yet every version of Q leaves common
	regimePartly      = "partly-coverable"       // some versions consult the window, some are skipped over
	regimeSubset      = "q-subset-of-a"          // All(Q) ⊆ All(A): every version consults the window
)

func regimeOf(q, a *history.History) string {
	common := q.AllValues().Intersect(a.AllValues())
	coverable, nonEmpty := 0, 0
	for i := 0; i < q.NumVersions(); i++ {
		if vs := q.Version(i).Values; !vs.IsEmpty() {
			nonEmpty++
			if vs.SubsetOf(common) {
				coverable++
			}
		}
	}
	switch {
	case common.IsEmpty():
		return regimeDisjoint
	case coverable == 0:
		return regimeUncoverable
	case coverable < nonEmpty:
		return regimePartly
	default:
		return regimeSubset
	}
}

func regimeWeights(t *testing.T, n timeline.Time) map[string]timeline.WeightFunc {
	exp, err := timeline.NewExponentialDecay(n, 0.97)
	if err != nil {
		t.Fatal(err)
	}
	table := make([]float64, n)
	for i := range table {
		table[i] = float64(i%5) / 4 // includes zero-weight days
	}
	prefix, err := timeline.NewPrefixSum(table)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]timeline.WeightFunc{
		"uniform":  timeline.Uniform(n),
		"relative": timeline.Relative(n),
		"expdecay": exp,
		"linear":   timeline.LinearDecay{N: n, W0: 0.1, W1: 1.9},
		"prefix":   prefix,
	}
}

// TestKernelRegimes holds the validation kernel to the per-timestamp
// definitions — core's naive variants and the independent oracle — on
// generated pairs in each of the four regimes, under every weight family
// and δ ∈ {0, 7, 30}. Subtests are named regime/weight/δ, so a mismatch
// says which road through the sweep broke.
func TestKernelRegimes(t *testing.T) {
	const horizon, perRegime = timeline.Time(160), 4
	c, err := datagen.Generate(datagen.Config{Seed: 11, Attributes: 300, Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	pairs := map[string][][2]*history.History{}
	for i := 0; i < ds.Len(); i++ {
		for j := 0; j < ds.Len(); j++ {
			q, a := ds.Attr(history.AttrID(i)), ds.Attr(history.AttrID(j))
			if r := regimeOf(q, a); i != j && len(pairs[r]) < perRegime {
				pairs[r] = append(pairs[r], [2]*history.History{q, a})
			}
		}
	}
	var scratch core.Scratch // reused across all pairs, as a query's arena does
	for _, regime := range []string{regimeDisjoint, regimeUncoverable, regimePartly, regimeSubset} {
		if len(pairs[regime]) == 0 {
			t.Fatalf("the corpus has no %s pair", regime)
		}
		for wname, w := range regimeWeights(t, horizon) {
			total := w.Sum(timeline.NewInterval(0, horizon))
			tol := 1e-9 * (1 + total)
			for _, delta := range []timeline.Time{0, 7, 30} {
				t.Run(fmt.Sprintf("%s/%s/delta=%d", regime, wname, delta), func(t *testing.T) {
					p := core.Params{Epsilon: 0.04 * total, Delta: delta, Weight: w}
					for _, pair := range pairs[regime] {
						checkPair(t, &scratch, pair[0], pair[1], p, tol)
					}
				})
			}
		}
	}
}

func checkPair(t *testing.T, s *core.Scratch, q, a *history.History, p core.Params, tol float64) {
	t.Helper()
	name := q.Meta().String() + " ⊆ " + a.Meta().String()
	want := oracle.ViolationWeight(q, a, p)
	if got := core.ViolationWeightNaive(q, a, p); math.Abs(got-want) > tol {
		t.Errorf("%s: naive weight %g, oracle %g", name, got, want)
	}
	if got := core.ViolationWeight(q, a, p); math.Abs(got-want) > tol {
		t.Errorf("%s: weight %g, oracle %g", name, got, want)
	}
	// The early-exit check must agree with the full weight whenever it
	// certifies, and with the definition on the verdict off the boundary.
	got, ok, err := s.Check(nil, q, a, p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if ok && got != core.ViolationWeight(q, a, p) {
		t.Errorf("%s: certified weight %g differs from ViolationWeight", name, got)
	}
	if math.Abs(want-p.Epsilon) > tol {
		if ok != core.HoldsNaive(q, a, p) || ok != oracle.Holds(q, a, p) || ok != core.Holds(q, a, p) {
			t.Errorf("%s: Check = %v, naive = %v, oracle = %v (weight %g, ε %g)",
				name, ok, core.HoldsNaive(q, a, p), oracle.Holds(q, a, p), want, p.Epsilon)
		}
	}
	var explained float64
	for _, v := range core.Explain(q, a, p) {
		explained += v.Weight
		if at := q.At(v.Interval.Start); !at.Contains(v.Missing) ||
			a.Union(timeline.Window(v.Interval.Start, p.Delta)).Contains(v.Missing) {
			t.Errorf("%s: Explain names %d missing at %d, which Q lacks or A's window holds",
				name, v.Missing, v.Interval.Start)
		}
	}
	if math.Abs(explained-want) > tol {
		t.Errorf("%s: Explain sums to %g, oracle %g", name, explained, want)
	}
	for _, sigma := range []float64{0.5, 0.8} {
		wantP := oracle.ViolationWeightPartial(q, a, p, sigma)
		gotP, err := core.ViolationWeightPartial(q, a, p, sigma, false)
		if err != nil || math.Abs(gotP-wantP) > tol {
			t.Errorf("%s: σ=%g partial weight %g (err %v), oracle %g", name, sigma, gotP, err, wantP)
		}
		if math.Abs(wantP-p.Epsilon) > tol {
			if h, _ := core.HoldsPartial(q, a, p, sigma); h != oracle.HoldsPartial(q, a, p, sigma) {
				t.Errorf("%s: σ=%g HoldsPartial = %v, oracle disagrees", name, sigma, h)
			}
		}
	}
}

// The closed form and the sweep must agree bit for bit: a right-hand side
// that covers no version of Q weighs exactly MaxViolation, whether the
// sweep got there without reading A (disjoint) or through the window (a
// shared value that is never in reach), under every weight family.
func TestMaxViolationIsTheAllViolatedWeight(t *testing.T) {
	const n = timeline.Time(90)
	b := history.NewBuilder(history.Meta{Page: "q"})
	for i, start := range []timeline.Time{3, 11, 12, 40, 41, 77} {
		b.Observe(start, values.NewSet(1, values.Value(2+i%3)))
	}
	q, err := b.Build(85)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(start, end timeline.Time, vs ...values.Value) *history.History {
		h, err := history.New(history.Meta{Page: "a"}, []history.Version{{Start: start, Values: values.NewSet(vs...)}}, end)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	rhs := map[string]*history.History{
		"disjoint":         mk(0, n, 50, 51),
		"shared-uncovered": mk(0, n, 1, 50),      // 1 is shared, 2..4 never are
		"shared-too-early": mk(0, 2, 1, 2, 3, 4), // all shared, gone before Q exists
	}
	for wname, w := range regimeWeights(t, n) {
		want := core.MaxViolation(q, w)
		for aname, a := range rhs {
			p := core.Params{Delta: 0, Weight: w}
			if got := core.ViolationWeight(q, a, p); got != want {
				t.Errorf("%s/%s: ViolationWeight = %v, MaxViolation = %v", wname, aname, got, want)
			}
			p.Epsilon = want
			if !core.Holds(q, a, p) {
				t.Errorf("%s/%s: a budget of MaxViolation must admit the all-violated pair", wname, aname)
			}
		}
	}
}

// TestPreparedCheckMatchesCheck holds the prepared sweep — Q's side built
// once, a bit test per version — to the per-pair one bit for bit: the same
// weight and verdict in every regime under every weight family, with ε at
// the regime test's budget, unbounded, at the pair's exact weight and just
// below it (where the early exit stops at a partial sum), and against a
// right-hand side that also holds ids above Q's largest. One Prepared
// serves every query in turn, as a query arena's does, and a fresh one is
// prepared for each; a uniform weight over half the horizon clamps Q's
// later versions away.
func TestPreparedCheckMatchesCheck(t *testing.T) {
	const horizon, perRegime = timeline.Time(160), 6
	c, err := datagen.Generate(datagen.Config{Seed: 11, Attributes: 300, Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	pairs := map[string][][2]*history.History{}
	for i := 0; i < ds.Len(); i++ {
		for j := 0; j < ds.Len(); j++ {
			q, a := ds.Attr(history.AttrID(i)), ds.Attr(history.AttrID(j))
			if r := regimeOf(q, a); i != j && len(pairs[r]) < perRegime {
				pairs[r] = append(pairs[r], [2]*history.History{q, a})
			}
		}
	}
	// above returns a with every version also holding two ids past both
	// sides' largest, so the prepared pass over All(A) must stop at the
	// mark array's end and the regime must not change.
	above := func(t *testing.T, q, a *history.History) *history.History {
		top := max(q.AllValues()[q.AllValues().Len()-1], a.AllValues()[a.AllValues().Len()-1])
		vs := make([]history.Version, a.NumVersions())
		for i := range vs {
			vs[i] = a.Version(i)
			vs[i].Values = vs[i].Values.Union(values.NewSet(top+1, top+5000))
		}
		h, err := history.New(a.Meta(), vs, a.ObservedUntil())
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	var s, sp core.Scratch
	var reused, fresh core.Prepared
	compare := func(t *testing.T, q, a *history.History, p core.Params) {
		t.Helper()
		want, wantOK, err := s.Check(nil, q, a, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, pq := range []*core.Prepared{&reused, &fresh} {
			got, gotOK, err := sp.CheckPrepared(nil, pq, a, p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) || gotOK != wantOK {
				t.Errorf("%s ⊆ %s (ε %v): prepared (%v, %v), per pair (%v, %v)",
					q.Meta(), a.Meta(), p.Epsilon, got, gotOK, want, wantOK)
			}
		}
	}
	weights := regimeWeights(t, horizon)
	weights["uniform-short"] = timeline.Uniform(horizon / 2) // clamps Q's later versions away
	for _, regime := range []string{regimeDisjoint, regimeUncoverable, regimePartly, regimeSubset} {
		if len(pairs[regime]) == 0 {
			t.Fatalf("the corpus has no %s pair", regime)
		}
		for wname, w := range weights {
			total := w.Sum(timeline.NewInterval(0, w.Horizon()))
			for _, delta := range []timeline.Time{0, 7, 30} {
				t.Run(fmt.Sprintf("%s/%s/delta=%d", regime, wname, delta), func(t *testing.T) {
					for _, pair := range pairs[regime] {
						q := pair[0]
						reused.Prepare(q, w)
						fresh = core.Prepared{}
						fresh.Prepare(q, w)
						for _, a := range []*history.History{pair[1], above(t, q, pair[1])} {
							if r := regimeOf(q, a); r != regime {
								t.Fatalf("%s ⊆ %s is %s, want %s", q.Meta(), a.Meta(), r, regime)
							}
							p := core.Params{Delta: delta, Weight: w}
							exact := core.ViolationWeight(q, a, p)
							for _, eps := range []float64{0.04 * total, math.Inf(1), exact, math.Nextafter(exact, -1)} {
								if eps < 0 {
									continue
								}
								p.Epsilon = eps
								compare(t, q, a, p)
							}
						}
					}
				})
			}
		}
	}
}

// TestHoldsAllocsPinned holds the sweep to its scratch: once a Scratch has
// grown to a pair's size, validating allocates nothing — no boundary list,
// no window map, no closure — in any of the four regimes, and neither do
// preparing a query and checking it once a Prepared has grown to its size.
// A query's arena relies on this.
func TestHoldsAllocsPinned(t *testing.T) {
	c, err := datagen.Generate(datagen.Config{Seed: 11, Attributes: 300, Horizon: 160})
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	p := core.DefaultDays(ds.Horizon())
	ctx := context.Background()
	var s core.Scratch
	var pq core.Prepared
	seen := map[string]bool{}
	for i := 0; i < ds.Len() && len(seen) < 4; i++ {
		for j := 0; j < ds.Len(); j++ {
			q, a := ds.Attr(history.AttrID(i)), ds.Attr(history.AttrID(j))
			if r := regimeOf(q, a); i != j && !seen[r] {
				seen[r] = true
				if allocs := testing.AllocsPerRun(50, func() { s.Check(ctx, q, a, p) }); allocs != 0 {
					t.Errorf("%s pair: %.1f allocs per Check with a warm Scratch, want 0", r, allocs)
				}
				if allocs := testing.AllocsPerRun(50, func() {
					pq.Prepare(q, p.Weight)
					s.CheckPrepared(ctx, &pq, a, p)
				}); allocs != 0 {
					t.Errorf("%s pair: %.1f allocs per Prepare and CheckPrepared with a warm Prepared and Scratch, want 0", r, allocs)
				}
			}
		}
	}
	if len(seen) < 4 {
		t.Fatalf("only regimes %v found", seen)
	}
}
