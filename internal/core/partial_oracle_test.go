package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tind/internal/core"
	"tind/internal/oracle"
	"tind/internal/timeline"
)

// TestHoldsPartialMatchesNaiveProperty holds the σ diagnostic to the
// oracle's own per-timestamp implementation on random histories.
func TestHoldsPartialMatchesNaiveProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := timeline.Time(15 + r.Intn(30))
		q := core.RandHistory(r, n)
		a := core.RandHistory(r, n)
		p := core.Params{
			Epsilon: r.Float64() * 5,
			Delta:   timeline.Time(r.Intn(4)),
			Weight:  timeline.Uniform(n),
		}
		sigma := 0.3 + r.Float64()*0.7
		ok, err := core.HoldsPartial(q, a, p, sigma)
		if err != nil {
			return false
		}
		return ok == oracle.HoldsPartial(q, a, p, sigma)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
