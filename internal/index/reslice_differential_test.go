package index

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/oracle"
	"tind/internal/timeline"
	"tind/internal/values"
)

// oracleSearch/oracleReverse are the definitional ground truth (per-
// timestamp window materialization), independent of both the index and
// the optimized core validation bruteSearch leans on.
func oracleSearch(ds *history.Dataset, q *history.History, p core.Params) []history.AttrID {
	var out []history.AttrID
	for _, a := range ds.Attrs() {
		if a == q {
			continue
		}
		if oracle.Holds(q, a, p) {
			out = append(out, a.ID())
		}
	}
	return out
}

func oracleReverse(ds *history.Dataset, q *history.History, p core.Params) []history.AttrID {
	var out []history.AttrID
	for _, a := range ds.Attrs() {
		if a == q {
			continue
		}
		if oracle.Holds(a, q, p) {
			out = append(out, a.ID())
		}
	}
	return out
}

// appendRound evolves the dataset by 8–20 days: a third of the attributes
// gain new values, a third persist, the rest die at their old end. It
// returns the changed ids and the new horizon.
func appendRound(r *rand.Rand, ds *history.Dataset) ([]history.AttrID, timeline.Time, error) {
	newHorizon := ds.Horizon() + timeline.Time(8+r.Intn(13))
	if err := ds.ExtendHorizon(newHorizon); err != nil {
		return nil, 0, err
	}
	var changed []history.AttrID
	for _, h := range ds.Attrs() {
		switch r.Intn(3) {
		case 0:
			ids := make([]values.Value, 1+r.Intn(4))
			for i := range ids {
				ids[i] = values.Value(r.Intn(25))
			}
			at := h.ObservedUntil() + timeline.Time(r.Intn(3))
			if err := h.Append(at, values.NewSet(ids...), newHorizon); err != nil {
				return nil, 0, err
			}
			changed = append(changed, h.ID())
		case 1:
			if err := h.ExtendObservation(newHorizon); err != nil {
				return nil, 0, err
			}
			changed = append(changed, h.ID())
		default:
		}
	}
	return changed, newHorizon, nil
}

// TestResliceMatchesRebuildAndOracle is the tentpole's correctness pin:
// after mixed append → refresh → reslice schedules, the resliced index
// must answer forward, reverse and top-k queries exactly like a clean
// rebuild over the final dataset and like the definitional oracle — for
// both slice strategies and reverse on/off.
func TestResliceMatchesRebuildAndOracle(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		horizon := timeline.Time(40 + r.Intn(30))
		ds := randDataset(r, 6+r.Intn(10), horizon)
		reverse := r.Intn(2) == 0
		opt := Options{
			Bloom:    bloom.Params{M: 128, K: 2},
			Slices:   2 + r.Intn(3),
			Strategy: SliceStrategy(r.Intn(2)),
			Params:   core.Params{Epsilon: 2, Delta: 3, Weight: timeline.Uniform(horizon)},
			Reverse:  reverse,
			Seed:     seed,
		}
		idx, err := Build(ds, opt)
		if err != nil {
			t.Log(err)
			return false
		}

		// Two rounds of append → refresh → reslice, so the second round
		// dirties an index whose slices already came from a reslice.
		newHorizon := horizon
		for round := 0; round < 2; round++ {
			var changed []history.AttrID
			changed, newHorizon, err = appendRound(r, ds)
			if err != nil {
				t.Log(err)
				return false
			}
			if err = idx.Refresh(changed, newHorizon); err != nil {
				t.Log(err)
				return false
			}
			st, rerr := idx.Reslice()
			if rerr != nil {
				t.Log(rerr)
				return false
			}
			if st.DirtyAfter != 0 || st.CoverageAfter != 1 {
				t.Logf("reslice left dirty=%d coverage=%g", st.DirtyAfter, st.CoverageAfter)
				return false
			}
		}
		if got := idx.Stats(); got.DirtyAttributes != 0 || got.SlicePruningCoverage != 1 || got.Reslices != 2 {
			t.Logf("stats after reslices: dirty=%d coverage=%g reslices=%d",
				got.DirtyAttributes, got.SlicePruningCoverage, got.Reslices)
			return false
		}

		// Clean rebuild over the final dataset, same options at the new
		// horizon.
		ropt := opt
		ropt.Params.Weight = timeline.Uniform(newHorizon)
		rebuilt, err := Build(ds, ropt)
		if err != nil {
			t.Log(err)
			return false
		}

		qp := core.Params{Epsilon: 2, Delta: 2, Weight: timeline.Uniform(newHorizon)}
		for trial := 0; trial < 3; trial++ {
			q := ds.Attr(history.AttrID(r.Intn(ds.Len())))

			res, err := idx.Search(q, qp)
			if err != nil {
				t.Log(err)
				return false
			}
			reb, err := rebuilt.Search(q, qp)
			if err != nil {
				t.Log(err)
				return false
			}
			want := oracleSearch(ds, q, qp)
			if !idsEqual(res.IDs, reb.IDs) || !idsEqual(res.IDs, want) {
				t.Logf("forward: resliced %v rebuilt %v oracle %v", res.IDs, reb.IDs, want)
				return false
			}

			if reverse {
				rres, err := idx.Reverse(q, qp)
				if err != nil {
					t.Log(err)
					return false
				}
				rreb, err := rebuilt.Reverse(q, qp)
				if err != nil {
					t.Log(err)
					return false
				}
				rwant := oracleReverse(ds, q, qp)
				if !idsEqual(rres.IDs, rreb.IDs) || !idsEqual(rres.IDs, rwant) {
					t.Logf("reverse: resliced %v rebuilt %v oracle %v", rres.IDs, rreb.IDs, rwant)
					return false
				}
			}

			k := 1 + r.Intn(4)
			topGot, err := topK(idx, q, 2, timeline.Uniform(newHorizon), k)
			if err != nil {
				t.Log(err)
				return false
			}
			topWant, err := topK(rebuilt, q, 2, timeline.Uniform(newHorizon), k)
			if err != nil {
				t.Log(err)
				return false
			}
			if !reflect.DeepEqual(topGot, topWant) {
				t.Logf("topk: resliced %v rebuilt %v", topGot, topWant)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestResliceRestoresCoverage pins the acceptance criterion directly:
// dirtying an index drops tind_index_slice_pruning_coverage below 1, a
// Reslice returns it to exactly 1 and zeroes the dirty gauge.
func TestResliceRestoresCoverage(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	const horizon = timeline.Time(50)
	ds := randDataset(r, 8, horizon)
	idx := buildTestIndex(t, ds, Options{
		Bloom:   bloom.Params{M: 128, K: 2},
		Slices:  3,
		Params:  core.Params{Epsilon: 2, Delta: 2, Weight: timeline.Uniform(horizon)},
		Reverse: true,
		Seed:    23,
	})

	// Dirty half the attributes without changing any data (idempotent
	// refresh at the same horizon).
	var half []history.AttrID
	for id := 0; id < ds.Len(); id += 2 {
		half = append(half, history.AttrID(id))
	}
	if err := idx.Refresh(half, horizon); err != nil {
		t.Fatal(err)
	}
	wantCov := 1 - float64(len(half))/float64(ds.Len())
	if g := mIndexSliceCoverage.Value(); math.Abs(g-wantCov) > 1e-12 {
		t.Fatalf("after refresh: coverage gauge = %g, want %g", g, wantCov)
	}

	st, err := idx.Reslice()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.CoverageBefore-wantCov) > 1e-12 || st.CoverageAfter != 1 {
		t.Fatalf("reslice stats: coverage %g -> %g, want %g -> 1",
			st.CoverageBefore, st.CoverageAfter, wantCov)
	}
	if st.DirtyBefore != len(half) || st.DirtyAfter != 0 {
		t.Fatalf("reslice stats: dirty %d -> %d, want %d -> 0", st.DirtyBefore, st.DirtyAfter, len(half))
	}
	if g := mIndexSliceCoverage.Value(); g != 1 {
		t.Fatalf("after reslice: coverage gauge = %g, want 1", g)
	}
	if g := mIndexDirtyAttributes.Value(); g != 0 {
		t.Fatalf("after reslice: dirty gauge = %g, want 0", g)
	}
	bs := idx.Stats()
	if bs.Reslices != 1 || bs.LastReslice.IsZero() {
		t.Fatalf("stats: Reslices=%d LastReslice=%v", bs.Reslices, bs.LastReslice)
	}

	// Reslicing at an unchanged horizon must reproduce the build's slice
	// selection exactly (seed pinning) — same intervals, same count.
	prev := idx.Stats().SliceSpans
	if _, err := idx.Reslice(); err != nil {
		t.Fatal(err)
	}
	if got := idx.Stats().SliceSpans; !reflect.DeepEqual(got, prev) {
		t.Fatalf("unchanged-horizon reslice moved the slices: %v -> %v", prev, got)
	}
}

// TestResliceCrashBeforeSwap simulates a reslice pass dying after the
// shadow build but before the swap: the serving index must be untouched
// — same slices, same dirty set, exact answers — and a later pass must
// recover cleanly.
func TestResliceCrashBeforeSwap(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	const horizon = timeline.Time(50)
	ds := randDataset(r, 8, horizon)
	p := core.Params{Epsilon: 2, Delta: 2, Weight: timeline.Uniform(horizon)}
	idx := buildTestIndex(t, ds, Options{
		Bloom: bloom.Params{M: 128, K: 2}, Slices: 3, Params: p, Reverse: true, Seed: 31,
	})
	if err := idx.Refresh([]history.AttrID{1, 4}, horizon); err != nil {
		t.Fatal(err)
	}
	before := idx.Stats()

	boom := errors.New("killed before swap")
	resliceTestHook = func() error { return boom }
	defer func() { resliceTestHook = nil }()
	if _, err := idx.Reslice(); !errors.Is(err, boom) {
		t.Fatalf("Reslice error = %v, want %v", err, boom)
	}

	after := idx.Stats()
	if !reflect.DeepEqual(after.SliceSpans, before.SliceSpans) {
		t.Fatalf("aborted reslice moved slices: %v -> %v", before.SliceSpans, after.SliceSpans)
	}
	if after.DirtyAttributes != before.DirtyAttributes || after.Reslices != 0 {
		t.Fatalf("aborted reslice touched state: dirty %d -> %d, reslices %d",
			before.DirtyAttributes, after.DirtyAttributes, after.Reslices)
	}
	q := ds.Attr(0)
	res, err := idx.Search(q, p)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteSearch(ds, q, p); !idsEqual(res.IDs, want) {
		t.Fatalf("after aborted reslice: got %v, want %v", res.IDs, want)
	}

	// The abort must also clear the reslice log so a successful pass
	// still clears the whole dirty set.
	resliceTestHook = nil
	st, err := idx.Reslice()
	if err != nil {
		t.Fatal(err)
	}
	if st.DirtyAfter != 0 || st.CoverageAfter != 1 {
		t.Fatalf("recovery reslice: dirty=%d coverage=%g", st.DirtyAfter, st.CoverageAfter)
	}
}

// TestResliceKeepsConcurrentRefreshDirty pins the reslice-log
// reconciliation: an attribute refreshed between the snapshot and the
// swap changed after the shadow matrices were filled, so the swap must
// keep it dirty (exempt from slice pruning) and answers must stay exact.
func TestResliceKeepsConcurrentRefreshDirty(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	horizon := timeline.Time(50)
	ds := randDataset(r, 8, horizon)
	idx := buildTestIndex(t, ds, Options{
		Bloom:  bloom.Params{M: 128, K: 2},
		Slices: 3,
		Params: core.Params{Epsilon: 2, Delta: 2, Weight: timeline.Uniform(horizon)},
		Seed:   37,
	})
	if err := idx.Refresh([]history.AttrID{2}, horizon); err != nil {
		t.Fatal(err)
	}

	// Mid-reslice (shadow built, swap pending) a real append lands.
	newHorizon := horizon + 10
	resliceTestHook = func() error {
		if err := ds.ExtendHorizon(newHorizon); err != nil {
			return err
		}
		h := ds.Attr(5)
		if err := h.Append(h.ObservedUntil(), values.NewSet(1, 2, 3), newHorizon); err != nil {
			return err
		}
		return idx.Refresh([]history.AttrID{5}, newHorizon)
	}
	defer func() { resliceTestHook = nil }()
	st, err := idx.Reslice()
	resliceTestHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if st.DirtyAfter != 1 {
		t.Fatalf("attribute refreshed mid-reslice must stay dirty: DirtyAfter=%d", st.DirtyAfter)
	}
	bs := idx.Stats()
	if bs.DirtyAttributes != 1 {
		t.Fatalf("DirtyAttributes=%d, want 1 (the mid-reslice refresh)", bs.DirtyAttributes)
	}

	p := core.Params{Epsilon: 2, Delta: 2, Weight: timeline.Uniform(newHorizon)}
	for trial := 0; trial < 4; trial++ {
		q := ds.Attr(history.AttrID(r.Intn(ds.Len())))
		res, err := idx.Search(q, p)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteSearch(ds, q, p); !idsEqual(res.IDs, want) {
			t.Fatalf("after mid-reslice refresh: got %v, want %v", res.IDs, want)
		}
	}

	// The next pass re-covers it.
	if st, err = idx.Reslice(); err != nil {
		t.Fatal(err)
	}
	if st.DirtyAfter != 0 {
		t.Fatalf("follow-up reslice: DirtyAfter=%d, want 0", st.DirtyAfter)
	}
}

// TestRefreshAtomicity is the satellite-1 regression: a batch with an
// out-of-range ID after valid ones must leave the index completely
// untouched — no weight advance, no dirty marks, no column rewrites.
// Pre-fix, refreshLocked validated inside the mutation loop, so the
// failing call left the weight bumped and attribute 0 dirty.
func TestRefreshAtomicity(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	horizon := timeline.Time(50)
	ds := randDataset(r, 6, horizon)
	idx := buildTestIndex(t, ds, Options{
		Bloom:  bloom.Params{M: 128, K: 2},
		Slices: 3,
		Params: core.Params{Epsilon: 2, Delta: 2, Weight: timeline.Uniform(horizon)},
		Seed:   41,
	})

	newHorizon := horizon + 10
	if err := ds.ExtendHorizon(newHorizon); err != nil {
		t.Fatal(err)
	}
	if err := ds.Attr(0).ExtendObservation(newHorizon); err != nil {
		t.Fatal(err)
	}
	// Valid id 0 first, bogus id second: the old code refreshed 0 (weight
	// bumped, column rewritten, dirty set) before noticing 99.
	err := idx.Refresh([]history.AttrID{0, 99}, newHorizon)
	if err == nil {
		t.Fatal("refresh with out-of-range id must fail")
	}
	if got := idx.Options().Params.Weight.Horizon(); got != horizon {
		t.Fatalf("failed refresh advanced the weight horizon to %d, want %d", got, horizon)
	}
	if st := idx.Stats(); st.DirtyAttributes != 0 {
		t.Fatalf("failed refresh dirtied %d attributes, want 0", st.DirtyAttributes)
	}
}
