package index

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/timeline"
	"tind/internal/values"
)

// refreshedIndex builds a reverse-capable index at ε 2, δ 3 over a random
// dataset, then appends 10–25 new days to a random subset of attributes:
// a real change with new values, an unchanged extension, or nothing (the
// attribute dies at its old end). It returns the dataset, the index
// refreshed over the changed attributes, and the new horizon.
func refreshedIndex(r *rand.Rand, seed int64) (*history.Dataset, *Index, timeline.Time, error) {
	horizon := timeline.Time(40 + r.Intn(30))
	ds := randDataset(r, 6+r.Intn(12), horizon)
	idxParams := core.Params{Epsilon: 2, Delta: 3, Weight: timeline.Uniform(horizon)}
	idx, err := Build(ds, Options{
		Bloom:   bloom.Params{M: 128, K: 2},
		Slices:  3,
		Params:  idxParams,
		Reverse: true,
		Seed:    seed,
	})
	if err != nil {
		return nil, nil, 0, err
	}
	newHorizon := horizon + timeline.Time(10+r.Intn(15))
	if err := ds.ExtendHorizon(newHorizon); err != nil {
		return nil, nil, 0, err
	}
	var changed []history.AttrID
	for _, h := range ds.Attrs() {
		switch r.Intn(3) {
		case 0: // a real change with new values
			ids := make([]values.Value, 1+r.Intn(4))
			for i := range ids {
				ids[i] = values.Value(r.Intn(25))
			}
			at := h.ObservedUntil() + timeline.Time(r.Intn(3))
			if err := h.Append(at, values.NewSet(ids...), newHorizon); err != nil {
				return nil, nil, 0, err
			}
			changed = append(changed, h.ID())
		case 1: // persists unchanged
			if err := h.ExtendObservation(newHorizon); err != nil {
				return nil, nil, 0, err
			}
			changed = append(changed, h.ID())
		default: // dies at its old end
		}
	}
	return ds, idx, newHorizon, idx.Refresh(changed, newHorizon)
}

// TestRefreshMatchesRebuild: after random appends, a refreshed index must
// answer every query exactly like brute force (and thus like a rebuilt
// index).
func TestRefreshMatchesRebuild(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ds, idx, newHorizon, err := refreshedIndex(r, seed)
		if err != nil {
			return false
		}
		qp := core.Params{Epsilon: 2, Delta: 2, Weight: timeline.Uniform(newHorizon)}
		for trial := 0; trial < 4; trial++ {
			q := ds.Attr(history.AttrID(r.Intn(ds.Len())))
			res, err := idx.Search(q, qp)
			if err != nil {
				return false
			}
			if !idsEqual(res.IDs, bruteSearch(ds, q, qp)) {
				return false
			}
			rres, err := idx.Reverse(q, qp)
			if err != nil {
				return false
			}
			if !idsEqual(rres.IDs, bruteReverse(ds, q, qp)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRefreshRelaxedReverseMatchesOracle: after random appends, reverse
// search above the index ε runs on the weighted prefix index, whose
// entries carry their versions' validities and whose untouched candidates
// come from its maximum-violation order. Every attribute, queried at
// ε 4, 8 and 15 under the advanced index weight, must get brute force's
// answer; at ε 30 and 60 many attributes weigh less than ε in all, and
// the walk down the order must keep each. An observation end or an order
// position Refresh left stale shows here as a missing attribute. (A stale
// closed validity only over-counts the cover and adds candidates; CheckPrefix
// catches that.)
func TestRefreshRelaxedReverseMatchesOracle(t *testing.T) {
	mismatches := 0
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		ds, idx, newHorizon, err := refreshedIndex(r, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, eps := range []float64{4, 8, 15, 30, 60} {
			p := core.Params{Epsilon: eps, Delta: 5, Weight: timeline.Uniform(newHorizon)}
			for _, q := range ds.Attrs() {
				res, err := idx.Reverse(q, p)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if want := bruteReverse(ds, q, p); !idsEqual(res.IDs, want) {
					if mismatches++; mismatches <= 5 {
						t.Errorf("seed %d, ε %v, query %d: reverse = %v, brute force %v",
							seed, eps, q.ID(), res.IDs, want)
					}
				}
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d relaxed reverse answers differ from brute force after a refresh", mismatches)
	}
}

func TestRefreshValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ds := randDataset(r, 5, 50)
	w, _ := timeline.NewExponentialDecay(50, 0.99)
	decayIdx, err := Build(ds, Options{
		Bloom:  bloom.Params{M: 128, K: 2},
		Params: core.Params{Epsilon: 1, Delta: 2, Weight: w},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := decayIdx.Refresh(nil, 50); err == nil {
		t.Error("Refresh under decay weighting must be rejected")
	}

	idx, err := Build(ds, Options{
		Bloom:  bloom.Params{M: 128, K: 2},
		Params: core.DefaultDays(50),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Refresh(nil, 40); err == nil {
		t.Error("shrinking horizon must be rejected")
	}
	if err := idx.Refresh(nil, 60); err == nil {
		t.Error("horizon mismatch with dataset must be rejected")
	}
	if err := idx.Refresh([]history.AttrID{99}, 50); err == nil {
		t.Error("out-of-range attribute must be rejected")
	}
	if err := idx.Refresh(nil, 50); err != nil {
		t.Errorf("no-op refresh must succeed: %v", err)
	}
	// The prefix index stores timestamps as int32.
	if err := ds.ExtendHorizon(timeline.MaxHorizon + 1); err != nil {
		t.Fatal(err)
	}
	if err := idx.Refresh(nil, timeline.MaxHorizon+1); err == nil {
		t.Error("horizon beyond timeline.MaxHorizon must be rejected")
	}
	if got := idx.Options().Params.Weight.Horizon(); got != 50 {
		t.Errorf("weight horizon %d after a rejected refresh, want 50", got)
	}
}

func TestHistoryAppendSemantics(t *testing.T) {
	ds := history.NewDataset(100)
	h, err := history.New(history.Meta{Page: "p"},
		[]history.Version{{Start: 0, Values: values.NewSet(1)}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	ds.Add(h)

	if err := h.Append(5, values.NewSet(2), 20); err == nil {
		t.Error("append before current end must fail")
	}
	if err := h.Append(12, values.NewSet(2), 12); err == nil {
		t.Error("append with end ≤ start must fail")
	}
	if err := h.Append(12, values.NewSet(2), 20); err != nil {
		t.Fatal(err)
	}
	if h.NumVersions() != 2 || h.ObservedUntil() != 20 {
		t.Fatalf("after append: versions=%d end=%d", h.NumVersions(), h.ObservedUntil())
	}
	// The old version persisted through the gap [10, 12).
	if !h.At(11).Equal(values.NewSet(1)) {
		t.Fatalf("At(11) = %v", h.At(11))
	}
	if !h.At(12).Equal(values.NewSet(2)) {
		t.Fatalf("At(12) = %v", h.At(12))
	}
	if !h.AllValues().Equal(values.NewSet(1, 2)) {
		t.Fatal("AllValues must include appended values")
	}
	// No-op append just extends.
	if err := h.Append(25, values.NewSet(2), 30); err != nil {
		t.Fatal(err)
	}
	if h.NumVersions() != 2 || h.ObservedUntil() != 30 {
		t.Fatal("no-op append must only extend the window")
	}
	if err := h.ExtendObservation(25); err == nil {
		t.Error("shrinking via ExtendObservation must fail")
	}
}

// TestRefreshResurrectedAttribute covers the staleness hazard the slice
// refill exists for: an attribute that died mid-history resumes after an
// append, back-filling days the slice matrices indexed as empty. Unless
// Refresh refills those columns, the stale slices would wrongly eliminate
// it.
func TestRefreshResurrectedAttribute(t *testing.T) {
	ds := history.NewDataset(60)
	mk := func(page string, vals values.Set, end timeline.Time) *history.History {
		h, err := history.New(history.Meta{Page: page},
			[]history.Version{{Start: 0, Values: vals}}, end)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ds.Add(h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	q := mk("query", values.NewSet(1, 2), 60)
	a := mk("dead-then-alive", values.NewSet(1, 2, 3), 20)

	idx, err := Build(ds, Options{
		Bloom:  bloom.Params{M: 256, K: 2},
		Slices: 10, // dense coverage so some slice falls into [20, 60)
		Params: core.Params{Epsilon: 3, Delta: 2, Weight: timeline.Uniform(60)},
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{Epsilon: 3, Delta: 2, Weight: timeline.Uniform(60)}
	res, err := idx.Search(q, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 0 {
		t.Fatalf("before resurrection Q ⊄ dead A (40 violated days): %v", res.IDs)
	}

	// A resumes: its values persist through the formerly dead period.
	if err := ds.ExtendHorizon(90); err != nil {
		t.Fatal(err)
	}
	if err := a.ExtendObservation(90); err != nil {
		t.Fatal(err)
	}
	if err := q.ExtendObservation(90); err != nil {
		t.Fatal(err)
	}
	if err := idx.Refresh([]history.AttrID{q.ID(), a.ID()}, 90); err != nil {
		t.Fatal(err)
	}
	p90 := core.Params{Epsilon: 3, Delta: 2, Weight: timeline.Uniform(90)}
	res, err = idx.Search(q, p90)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteSearch(ds, q, p90); !idsEqual(res.IDs, want) {
		t.Fatalf("after resurrection: got %v, want %v (stale slices must not prune the resurrected attribute)", res.IDs, want)
	}
	if len(res.IDs) != 1 || res.IDs[0] != a.ID() {
		t.Fatalf("resurrected attribute must be found: %v", res.IDs)
	}
}
