package core

import (
	"fmt"

	"tind/internal/history"
	"tind/internal/timeline"
)

// This file implements the additional relaxation the paper sketches in
// §3.3 and defers to future work (§6): combining (w,ε,δ)-tINDs with
// *partial* containment in the style of Zhu et al. — at each timestamp
// only a share σ of the left-hand side's values needs to be (δ-)contained
// in the right-hand side. It addresses long-lived representation
// differences (USA vs United States) that neither ε nor δ absorbs.
//
// It is a diagnostic, not a serving path: no index query, server or
// command uses σ < 1. The index could not prune partial candidates with
// required values anyway (any single value may be part of the tolerated
// 1−σ gap), so the check runs the definition timestamp by timestamp and
// leaves Algorithm 2's sweep to plain δ-containment.

// SigmaContained reports whether at least sigma of Q[t]'s values appear
// in A[[t−δ, t+δ]]. An empty Q[t] is trivially contained. sigma = 1 is
// exactly δ-containment (Definition 3.4).
func SigmaContained(q, a *history.History, t timeline.Time, delta timeline.Time, sigma float64) bool {
	qv := q.At(t)
	if qv.IsEmpty() {
		return true
	}
	n := qv.Intersect(a.Union(timeline.Window(t, delta))).Len()
	return float64(n)/float64(qv.Len()) >= sigma
}

// HoldsPartial reports whether Q ⊆^σ_{w,ε,δ} A: the summed weight of
// timestamps where less than sigma of Q[t] is δ-contained in A stays at
// most ε. sigma must be in (0, 1]; sigma = 1 coincides with Holds.
func HoldsPartial(q, a *history.History, p Params, sigma float64) (bool, error) {
	w, err := ViolationWeightPartial(q, a, p, sigma, true)
	return w <= p.Epsilon, err
}

// ViolationWeightPartial returns the summed weight of timestamps at which
// the σ-containment fails, checked timestamp by timestamp. With earlyExit
// it may return any value exceeding ε as soon as the dependency is
// refuted.
func ViolationWeightPartial(q, a *history.History, p Params, sigma float64, earlyExit bool) (float64, error) {
	if !(sigma > 0 && sigma <= 1) {
		return 0, fmt.Errorf("core: sigma must be in (0,1], got %g", sigma)
	}
	var violation float64
	for t := timeline.Time(0); t < p.Weight.Horizon(); t++ {
		if SigmaContained(q, a, t, p.Delta, sigma) {
			continue
		}
		if violation += p.Weight.Weight(t); earlyExit && violation > p.Epsilon {
			break
		}
	}
	return violation, nil
}
