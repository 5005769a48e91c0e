package index

import (
	"fmt"
	"time"

	"tind/internal/bitmatrix"
	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/obs"
	"tind/internal/timeline"
)

// Refresh incorporates appended history data (history.Append /
// ExtendObservation on attributes of the indexed dataset) into the index
// without a rebuild — incremental maintenance in the spirit of the
// related work by Shaabani et al., adapted to the temporal index:
//
//   - M_T columns gain the bits of each changed attribute's new values;
//     bits are only ever added, which keeps superset pruning sound.
//   - Each changed attribute's slice columns and minimum violation
//     weights are refilled from its current history, so they equal a
//     fresh build's. Appends change a history only at or after its old
//     observation end, so only slices whose I^δ reaches past the end the
//     columns were filled to are touched (DESIGN §12).
//   - The reverse required-values matrix M_R gains the bits of each
//     changed attribute's refreshed required-value set. Under a constant
//     index weighting, required values only grow with appended time, so
//     the stale bits remain a subset of the fresh set and reverse pruning
//     stays sound.
//   - The weighted prefix index gains an entry for each changed
//     attribute's versions at or after the count it had indexed, and its
//     maximum violation is recomputed under the advanced weight.
//
// The constant-weighting argument above is why Refresh requires the index
// to have been built with a timeline.Constant weight function; rebuild
// for decaying weights (whose per-day weights shift with the horizon).
//
// newHorizon must match the dataset's (already extended) horizon. Every id
// in changed must be indexed; its column is re-read from the dataset, so a
// history swapped in with Dataset.Replace, or appended to in place, is
// picked up. The weight horizon advances even when changed is empty.
//
// Refresh is safe to call concurrently with queries: it takes the index's
// write lock, blocking until in-flight queries drain and holding new ones
// back until the matrices are consistent again. The underlying history
// appends remain the caller's to serialize against queries of the appended
// attributes themselves, which read the caller's history; every other
// query reads only the index's copy of each column.
func (x *Index) Refresh(changed []history.AttrID, newHorizon timeline.Time) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.refreshLocked(changed, newHorizon)
}

// RefreshWith runs prepare under the index's write lock — with queries
// drained and held back — and then refreshes the attribute IDs prepare
// returns. It exists for callers that must mutate the indexed dataset
// itself (e.g. the ingester swapping in updated history clones) atomically
// with the matrix refresh: between prepare and the refresh no query can
// observe the half-applied state. prepare runs exactly once; an error
// from it aborts the refresh with the matrices untouched.
func (x *Index) RefreshWith(newHorizon timeline.Time, prepare func(ds *history.Dataset) ([]history.AttrID, error)) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	changed, err := prepare(x.ds)
	if err != nil {
		return err
	}
	return x.refreshLocked(changed, newHorizon)
}

// refreshLocked is the body of Refresh; the caller holds x.mu. Every
// completed refresh — it holds the write lock, so it stalls queries —
// records one wide event with its duration and the number of refreshed
// attributes.
func (x *Index) refreshLocked(changed []history.AttrID, newHorizon timeline.Time) error {
	start := time.Now()
	c, ok := x.opt.Params.Weight.(timeline.Constant)
	if !ok {
		return fmt.Errorf("index: Refresh requires a constant index weighting (have %v); rebuild instead",
			x.opt.Params.Weight)
	}
	if newHorizon < c.N {
		return fmt.Errorf("index: horizon cannot shrink (%d to %d)", c.N, newHorizon)
	}
	if newHorizon > timeline.MaxHorizon {
		return fmt.Errorf("index: horizon %d exceeds the maximum %d", newHorizon, timeline.MaxHorizon)
	}
	if got := x.ds.Horizon(); got != newHorizon {
		return fmt.Errorf("index: dataset horizon %d does not match newHorizon %d", got, newHorizon)
	}
	// Validate every ID before touching any state: a bad ID mid-batch must
	// not leave the index half-refreshed (weight advanced, some columns
	// rewritten) — refresh is all-or-nothing.
	cols := make([]int, len(changed))
	for i, id := range changed {
		var ok bool
		if cols[i], ok = x.column(id); !ok {
			return fmt.Errorf("index: changed attribute %d is not indexed", id)
		}
	}
	x.opt.Params.Weight = timeline.Constant{N: newHorizon, C: c.C}

	for i, col := range cols {
		x.src[col] = x.ds.Attr(changed[i])
		*x.cols[col] = *x.src[col]
		h := x.cols[col]
		// Adding the full current value set is idempotent: existing bits
		// stay set, new values contribute their bits. Each column is hashed
		// at its matrix's own width.
		x.mT.SetColumn(col, bloom.FromSet(x.mT.Params(), h.AllValues()))
		if x.mR != nil {
			req := core.RequiredValues(h, x.opt.Params.Epsilon, x.opt.Params.Weight)
			x.mR.SetColumn(col, bloom.FromSet(x.mR.Params(), req))
		}
		x.px.refresh(col, h, x.opt.Params.Weight)
	}
	x.px.reorder(cols)
	x.ss.refill(cols, x.cols, x.opt)
	if len(changed) > 0 {
		// A refresh that only advances the horizon, as on every shard that
		// owns none of the changed attributes, leaves no event.
		obs.Events().Record(obs.Event{
			Kind:     obs.EventRefresh,
			Records:  len(changed),
			Duration: time.Since(start),
		})
	}
	return nil
}

// CheckSlices reports the first slice entry that differs from a fresh fill
// of the same interval over the current histories — a matrix column that
// is not bit-equal to Bloom(A[I^δ]), or a minimum violation weight that is
// not value-equal — and nil when every entry matches. That is the
// invariant Build, Refresh and Reslice keep (DESIGN §12). It reads every
// history in every slice, so it is a check for tests, not for queries.
func (x *Index) CheckSlices() error {
	x.mu.RLock()
	defer x.mu.RUnlock()
	n := len(x.cols)
	col, out := bitmatrix.NewVec(n), bitmatrix.NewVec(n)
	var buf []int
	for j, ts := range x.ss.slices {
		window := ts.window(x.opt)
		for a, h := range x.cols {
			f := bloom.FromSet(ts.matrix.Params(), h.Union(window))
			col.Reset()
			col.Set(a)
			buf = ts.matrix.SupersetsInto(f, col, out, buf)
			equal := out.Get(a)
			buf = ts.matrix.SubsetsInto(f, col, out, buf)
			if !equal || !out.Get(a) {
				return fmt.Errorf("index: slice %d %v: column %d is not Bloom(A[I^δ])", j, ts.iv, a)
			}
			if ts.minVio == nil {
				continue
			}
			if got, want := ts.minVio[a], minViolationWeight(h, window, x.opt.Params.Weight); got != want {
				return fmt.Errorf("index: slice %d %v: attribute %d has minimum violation weight %g, a fresh fill %g",
					j, ts.iv, a, got, want)
			}
		}
	}
	return nil
}
