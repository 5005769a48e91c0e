package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/timeline"
	"tind/internal/values"
)

// The fuzz targets drive the differential comparisons from fuzzer-chosen
// coordinates instead of a fixed grid. All parameters are int64/float64
// (never bytes or strings) so the corpus encoding is unambiguous, and
// every raw input is folded into a valid configuration rather than
// rejected — the fuzzer should spend its budget on semantics, not on
// learning our validation rules. Seed corpora live under testdata/fuzz
// and run as ordinary test cases in `go test`; CI additionally runs each
// target for a time-boxed -fuzz smoke.

// clampI folds v into [lo, hi].
func clampI(v, lo, hi int64) int64 {
	if hi <= lo {
		return lo
	}
	span := hi - lo + 1
	v %= span
	if v < 0 {
		v += span
	}
	return lo + v
}

// clampF folds v into [0, hi], mapping non-finite values to 0.
func clampF(v, hi float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	v = math.Abs(v)
	return math.Mod(v, hi)
}

// fuzzWeight selects a weight family by index.
func fuzzWeight(kind int64, n timeline.Time) timeline.WeightFunc {
	switch clampI(kind, 0, 4) {
	case 0:
		return timeline.Uniform(n)
	case 1:
		return timeline.Relative(n)
	case 2:
		w, err := timeline.NewExponentialDecay(n, 0.96)
		if err != nil {
			panic(err)
		}
		return w
	case 3:
		return timeline.LinearDecay{N: n, W0: 0.1, W1: 1.9}
	default:
		table := make([]float64, n)
		for t := range table {
			table[t] = float64(t%5) / 4 // includes zero-weight days
		}
		w, err := timeline.NewPrefixSum(table)
		if err != nil {
			panic(err)
		}
		return w
	}
}

// fuzzHistory builds a random history over a small shared vocabulary, so
// near-containments between two draws are common rather than vanishing.
func fuzzHistory(r *rand.Rand, n timeline.Time) *history.History {
	from := timeline.Time(r.Intn(int(n)))
	end := from + 1 + timeline.Time(r.Intn(int(n-from)))
	var versions []history.Version
	start := from
	for start < end {
		card := 1 + r.Intn(6)
		vals := values.Set{}
		for i := 0; i < card; i++ {
			vals = vals.Union(values.NewSet(values.Value(r.Intn(18))))
		}
		// Histories reject consecutive identical versions; re-drawing the
		// same set just extends the previous version's validity.
		if len(versions) == 0 || !vals.Equal(versions[len(versions)-1].Values) {
			versions = append(versions, history.Version{Start: start, Values: vals})
		}
		start += 1 + timeline.Time(r.Intn(int(n)/3+1))
	}
	h, err := history.New(history.Meta{Page: "fuzz"}, versions, end)
	if err != nil {
		panic(err)
	}
	return h
}

// FuzzHoldsDifferential fuzzes core's Algorithm-2 validation (and its
// naive variant, and Explain) against the per-timestamp oracle on a pair
// of random histories, and the prepared check against the per-pair one.
func FuzzHoldsDifferential(f *testing.F) {
	f.Add(int64(1), int64(60), int64(2), float64(0.05), int64(0))
	f.Add(int64(7), int64(31), int64(0), float64(0), int64(2))
	f.Add(int64(-3), int64(121), int64(7), float64(0.4), int64(4))
	f.Fuzz(func(t *testing.T, seed, horizon, delta int64, epsShare float64, wkind int64) {
		n := timeline.Time(clampI(horizon, 4, 150))
		r := rand.New(rand.NewSource(seed))
		q := fuzzHistory(r, n)
		a := fuzzHistory(r, n)
		w := fuzzWeight(wkind, n)
		total := w.Sum(timeline.NewInterval(0, n))
		p := core.Params{
			Epsilon: clampF(epsShare, 1) * total,
			Delta:   timeline.Time(clampI(delta, 0, 10)),
			Weight:  w,
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("folded params must be valid: %v", err)
		}
		tol := diffTol(w)

		want := ViolationWeight(q, a, p)
		if got := core.ViolationWeight(q, a, p); math.Abs(got-want) > tol {
			t.Errorf("core ViolationWeight = %g, oracle = %g", got, want)
		}
		if got := core.ViolationWeightNaive(q, a, p); math.Abs(got-want) > tol {
			t.Errorf("core ViolationWeightNaive = %g, oracle = %g", got, want)
		}
		if math.Abs(want-p.Epsilon) > tol {
			if got, wantH := core.Holds(q, a, p), Holds(q, a, p); got != wantH {
				t.Errorf("core Holds = %v, oracle = %v (vw %g, ε %g)", got, wantH, want, p.Epsilon)
			}
		}
		// The prepared sweep is the per-pair one with Q's side built once:
		// bit-equal weight and verdict, early exit included.
		var s core.Scratch
		var pq core.Prepared
		pq.Prepare(q, w)
		wantW, wantOK, _ := s.Check(nil, q, a, p)
		if gotW, gotOK, _ := s.CheckPrepared(nil, &pq, a, p); math.Float64bits(gotW) != math.Float64bits(wantW) || gotOK != wantOK {
			t.Errorf("core CheckPrepared = (%v, %v), Check = (%v, %v)", gotW, gotOK, wantW, wantOK)
		}
		runs := Violations(q, a, p)
		got := core.Explain(q, a, p)
		if len(got) != len(runs) {
			t.Fatalf("core Explain has %d runs, oracle %d", len(got), len(runs))
		}
		for i := range runs {
			if got[i].Interval != runs[i].Interval || math.Abs(got[i].Weight-runs[i].Weight) > tol {
				t.Errorf("run %d: core %+v, oracle %+v", i, got[i], runs[i])
			}
		}
	})
}

// FuzzQueryCompleteness fuzzes the full pruning chain: build an index
// over a generated corpus at fuzzer-chosen shape and compare forward and
// reverse query answers for two attributes against the oracle's sets.
func FuzzQueryCompleteness(f *testing.F) {
	f.Add(int64(1), int64(8), int64(3), int64(0), float64(0.05), int64(2), int64(0))
	f.Add(int64(9), int64(12), int64(1), int64(1), float64(0), int64(0), int64(1))
	f.Add(int64(-5), int64(10), int64(8), int64(1), float64(0.1), int64(5), int64(3))
	f.Fuzz(func(t *testing.T, seed, attrs, slices, strategy int64, epsShare float64, delta, wkind int64) {
		const horizon = timeline.Time(64)
		nAttrs := int(clampI(attrs, 5, 14))
		c, err := datagen.Generate(datagen.Config{
			Seed:           seed,
			Horizon:        horizon,
			Attributes:     nAttrs,
			AttrsPerDomain: 5,
		})
		if err != nil {
			t.Fatalf("datagen: %v", err)
		}
		ds := c.Dataset
		w := fuzzWeight(wkind, horizon)
		total := w.Sum(timeline.NewInterval(0, horizon))
		p := core.Params{
			Epsilon: clampF(epsShare, 0.2) * total,
			Delta:   timeline.Time(clampI(delta, 0, 7)),
			Weight:  w,
		}
		strat := index.Random
		if clampI(strategy, 0, 1) == 1 {
			strat = index.WeightedRandom
		}
		idx, err := index.Build(ds, index.Options{
			Bloom:    bloom.Params{M: 128, K: 2},
			Slices:   int(clampI(slices, 1, 8)),
			Strategy: strat,
			Params:   p,
			Reverse:  true,
			Seed:     seed,
		})
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		tol := diffTol(w)
		for _, qi := range []int{0, ds.Len() - 1} {
			self := history.AttrID(qi)
			q := ds.Attr(self)
			vio := make([]float64, ds.Len())
			rvio := make([]float64, ds.Len())
			for ai := 0; ai < ds.Len(); ai++ {
				if ai == qi {
					continue
				}
				vio[ai] = ViolationWeight(q, ds.Attr(history.AttrID(ai)), p)
				rvio[ai] = ViolationWeight(ds.Attr(history.AttrID(ai)), q, p)
			}
			res, err := idx.Search(q, p)
			if err != nil {
				t.Fatal(err)
			}
			checkIDSet(t, fmt.Sprintf("forward q=%d", qi), res.IDs, self, vio, p.Epsilon, tol)
			res, err = idx.Reverse(q, p)
			if err != nil {
				t.Fatal(err)
			}
			checkIDSet(t, fmt.Sprintf("reverse q=%d", qi), res.IDs, self, rvio, p.Epsilon, tol)
		}
	})
}
