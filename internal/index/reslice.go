package index

import (
	"math/rand"
	"time"

	"tind/internal/obs"
	"tind/internal/timeline"
)

// ResliceStats reports what one re-slicing pass did.
type ResliceStats struct {
	// Slices is the number of slice matrices after the pass.
	Slices int
	// Horizon is the dataset horizon the new slices were selected over.
	Horizon timeline.Time
	// Elapsed is the whole pass, all of it under the write lock.
	Elapsed time.Duration
}

// Reslice re-runs slice selection over the current (possibly extended)
// horizon and fills fresh slice matrices — each folded to the width its
// fill asks for, as Build's are — and minimum violation weights for
// reverse-capable indices, from the current histories, under the write
// lock. Refresh already keeps the slices exact, so a reslice only
// moves the intervals to where the grown horizon lets them prune.
//
// Determinism: the slice-selection seed is Seed + (horizon −
// baseHorizon), so reslicing at an unchanged horizon reproduces the
// build's slice choice exactly, and each new horizon draws a fresh but
// reproducible selection. The error is always nil.
func (x *Index) Reslice() (ResliceStats, error) {
	start := time.Now()
	x.mu.Lock()
	horizon := x.ds.Horizon()
	rng := rand.New(rand.NewSource(x.opt.Seed + int64(horizon-x.baseHorizon)))
	x.ss, _ = buildTimeSlices(x.cols, horizon, x.opt, rng)
	st := ResliceStats{Slices: len(x.ss.slices), Horizon: horizon}
	attrs := len(x.cols)
	x.mu.Unlock()
	st.Elapsed = time.Since(start)

	mResliceSeconds.ObserveDuration(st.Elapsed)
	mReslices.Add(1)
	obs.Events().Record(obs.Event{
		Kind:     obs.EventReslice,
		Records:  attrs,
		Duration: st.Elapsed,
	})
	return st, nil
}
