package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tind/internal/timeline"
)

func TestSigmaContained(t *testing.T) {
	// Q holds {GER, POL, USA}; A holds {GER, POL}: 2/3 contained.
	q := hist(t, 10, v(0, GER, POL, USA))
	a := hist(t, 10, v(0, GER, POL))
	if !SigmaContained(q, a, 5, 0, 0.6) {
		t.Error("2/3 ≥ 0.6 must hold")
	}
	if SigmaContained(q, a, 5, 0, 0.7) {
		t.Error("2/3 < 0.7 must fail")
	}
	if !SigmaContained(q, a, 5, 0, 2.0/3) {
		t.Error("exactly σ must hold")
	}
	// Empty Q is trivially contained.
	q2 := hist(t, 10, v(5, GER))
	if !SigmaContained(q2, a, 0, 0, 1) {
		t.Error("unobservable LHS must be σ-contained")
	}
}

func TestHoldsPartialRepresentationDrift(t *testing.T) {
	// The paper's motivating case for σ: one long-lived representation
	// difference ("USA" on the left, "United States" on the right) that
	// neither ε nor δ can absorb.
	const UNITED = USA + 1 // a distinct id for the alternative spelling
	q := hist(t, 100, v(0, USA, GER, POL))
	a := hist(t, 100, v(0, UNITED, GER, POL))
	p := Params{Epsilon: 3, Delta: 7, Weight: timeline.Uniform(100)}

	if Holds(q, a, p) {
		t.Fatal("exact containment must fail on the renamed entity")
	}
	ok, err := HoldsPartial(q, a, p, 2.0/3)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("σ=2/3 must absorb one differing representation out of three")
	}
	ok, err = HoldsPartial(q, a, p, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("σ=0.9 must reject 2/3 containment")
	}
}

func TestHoldsPartialSigmaOneEqualsHolds(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := timeline.Time(15 + r.Intn(30))
		q := randHistory(r, n)
		a := randHistory(r, n)
		p := Params{
			Epsilon: r.Float64() * 5,
			Delta:   timeline.Time(r.Intn(5)),
			Weight:  timeline.Uniform(n),
		}
		ok, err := HoldsPartial(q, a, p, 1)
		if err != nil {
			return false
		}
		return ok == Holds(q, a, p)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHoldsPartialMonotoneInSigma(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n := timeline.Time(40)
	q := randHistory(r, n)
	a := randHistory(r, n)
	p := Params{Epsilon: 2, Delta: 2, Weight: timeline.Uniform(n)}
	prev := true
	for _, sigma := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0} {
		ok, err := HoldsPartial(q, a, p, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if ok && !prev {
			t.Fatalf("σ-monotonicity violated at σ=%g", sigma)
		}
		prev = ok
	}
}

func TestHoldsPartialValidation(t *testing.T) {
	q := hist(t, 10, v(0, GER))
	a := hist(t, 10, v(0, GER))
	p := Params{Epsilon: 0, Delta: 0, Weight: timeline.Uniform(10)}
	for _, sigma := range []float64{0, -1, 1.5} {
		if _, err := HoldsPartial(q, a, p, sigma); err == nil {
			t.Errorf("σ=%g must be rejected", sigma)
		}
	}
}
