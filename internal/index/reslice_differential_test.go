package index

import (
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
		// refreshes an index whose slices already came from a reslice.
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
			if _, rerr := idx.Reslice(); rerr != nil {
				t.Log(rerr)
				return false
			}
			if serr := idx.CheckSlices(); serr != nil {
				t.Log(serr)
				return false
			}
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

// TestRefreshAtomicity is the satellite-1 regression: a batch with an
// out-of-range ID after valid ones must leave the index completely
// untouched — no weight advance, no column rewrites. Pre-fix,
// refreshLocked validated inside the mutation loop, so the failing call
// left the weight bumped and attribute 0 rewritten.
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
	// bumped, column rewritten) before noticing 99.
	err := idx.Refresh([]history.AttrID{0, 99}, newHorizon)
	if err == nil {
		t.Fatal("refresh with out-of-range id must fail")
	}
	if got := idx.Options().Params.Weight.Horizon(); got != horizon {
		t.Fatalf("failed refresh advanced the weight horizon to %d, want %d", got, horizon)
	}
	if got := idx.ss.filled[0]; got != horizon {
		t.Fatalf("failed refresh moved attribute 0's slice fill end to %d, want %d", got, horizon)
	}
}
