package core

import (
	"fmt"

	"tind/internal/history"
	"tind/internal/timeline"
	"tind/internal/values"
)

// This file implements the additional relaxation the paper sketches in
// §3.3 and defers to future work (§6): combining (w,ε,δ)-tINDs with
// *partial* containment in the style of Zhu et al. — at each timestamp
// only a share σ of the left-hand side's values needs to be (δ-)contained
// in the right-hand side. It addresses long-lived representation
// differences (USA vs United States) that neither ε nor δ absorbs.
//
// The index cannot prune partial candidates with required values (any
// single value may be part of the tolerated 1−σ gap), so discovery runs
// through exhaustive validation; the validation itself is the sweep of
// Algorithm 2 with a tolerance for absent values and stays fast.

// SigmaContained reports whether at least sigma of Q[t]'s values appear
// in A[[t−δ, t+δ]]. An empty Q[t] is trivially contained. sigma = 1 is
// exactly δ-containment (Definition 3.4).
func SigmaContained(q, a *history.History, t timeline.Time, delta timeline.Time, sigma float64) bool {
	qv := q.At(t)
	if qv.IsEmpty() {
		return true
	}
	win := a.Union(timeline.Window(t, delta))
	return containedShare(qv, win) >= sigma
}

func containedShare(qv, win values.Set) float64 {
	if qv.IsEmpty() {
		return 1
	}
	n := qv.Intersect(win).Len()
	return float64(n) / float64(qv.Len())
}

// HoldsPartial reports whether Q ⊆^σ_{w,ε,δ} A: the summed weight of
// timestamps where less than sigma of Q[t] is δ-contained in A stays at
// most ε. sigma must be in (0, 1]; sigma = 1 coincides with Holds.
func HoldsPartial(q, a *history.History, p Params, sigma float64) (bool, error) {
	w, err := ViolationWeightPartial(q, a, p, sigma, true)
	return w <= p.Epsilon, err
}

// ViolationWeightPartial returns the summed weight of timestamps at which
// the σ-containment fails. With earlyExit it may return any value
// exceeding ε as soon as the dependency is refuted.
func ViolationWeightPartial(q, a *history.History, p Params, sigma float64, earlyExit bool) (float64, error) {
	if !(sigma > 0 && sigma <= 1) {
		return 0, fmt.Errorf("core: sigma must be in (0,1], got %g", sigma)
	}
	return new(Scratch).violationWeight(nil, q, nil, a, p, sigma, earlyExit)
}

// HoldsPartialNaive checks the definition timestamp by timestamp; the
// oracle for property tests.
func HoldsPartialNaive(q, a *history.History, p Params, sigma float64) bool {
	n := p.Weight.Horizon()
	var violation float64
	for t := timeline.Time(0); t < n; t++ {
		if !SigmaContained(q, a, t, p.Delta, sigma) {
			violation += p.Weight.Weight(t)
		}
	}
	return violation <= p.Epsilon
}
