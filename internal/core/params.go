// Package core implements the semantics of temporal inclusion dependencies
// (Section 3 of the paper) and their efficient validation (Algorithm 2,
// Section 4.3).
//
// The general form is the (w,ε,δ)-relaxed tIND (Definition 3.6): Q ⊆ A
// holds when the summed weight of timestamps t at which Q[t] is not
// δ-contained in A stays at most ε. Strict, ε-relaxed and (ε,δ)-relaxed
// tINDs are special cases obtained via the constructors below.
package core

import (
	"fmt"

	"tind/internal/timeline"
)

// Params fixes one tIND relaxation: the violation budget ε, the temporal
// shift tolerance δ and the timestamp weighting w.
type Params struct {
	// Epsilon is the maximum allowed summed violation weight. With the
	// uniform weighting w ≡ 1 it is expressed in days (the paper's default
	// is 3 days); with Relative weighting it is the allowed share of
	// violated timestamps.
	Epsilon float64
	// Delta is the allowed temporal shift in days (Definition 3.4). The
	// paper's default is 7 days.
	Delta timeline.Time
	// Weight assigns importance to timestamps (Definition 3.6).
	Weight timeline.WeightFunc
}

// MaxDelta bounds the temporal shift δ. No timeline comes near it; the
// bound exists so the window arithmetic t±δ over parameters that arrive
// from outside the program (HTTP, the shard RPC) cannot overflow.
const MaxDelta timeline.Time = 1 << 40

// Validate reports whether the parameters are well formed.
func (p Params) Validate() error {
	if p.Epsilon < 0 {
		return fmt.Errorf("core: negative epsilon %g", p.Epsilon)
	}
	if p.Delta < 0 || p.Delta > MaxDelta {
		return fmt.Errorf("core: delta %d outside [0,%d]", p.Delta, MaxDelta)
	}
	if p.Weight == nil {
		return fmt.Errorf("core: nil weight function")
	}
	return nil
}

// Strict returns the parameters of a strict tIND (Definition 3.2): no
// violations, no shift.
func Strict(n timeline.Time) Params {
	return Params{Epsilon: 0, Delta: 0, Weight: timeline.Uniform(n)}
}

// EpsilonRelaxed returns the parameters of an ε-relaxed tIND (Definition
// 3.3): share is the allowed fraction of violated timestamps; no shift.
func EpsilonRelaxed(share float64, n timeline.Time) Params {
	return Params{Epsilon: share, Delta: 0, Weight: timeline.Relative(n)}
}

// EpsilonDelta returns the parameters of an (ε,δ)-relaxed tIND (Definition
// 3.5): share of violated timestamps at most share, shift up to delta.
func EpsilonDelta(share float64, delta timeline.Time, n timeline.Time) Params {
	return Params{Epsilon: share, Delta: delta, Weight: timeline.Relative(n)}
}

// DefaultDays returns the paper's default experimental setting (§5.1):
// ε = 3 days under the uniform weighting, δ = 7 days.
func DefaultDays(n timeline.Time) Params {
	return Params{Epsilon: 3, Delta: 7, Weight: timeline.Uniform(n)}
}

// String renders the relaxation for experiment logs.
func (p Params) String() string {
	return fmt.Sprintf("ε=%g δ=%d w=%v", p.Epsilon, p.Delta, p.Weight)
}
