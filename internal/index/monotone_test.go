package index

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/timeline"
)

// Relaxation monotonicity: loosening ε or δ can only add results — the
// invariant behind Figure 8.
func TestSearchMonotoneInRelaxationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		horizon := timeline.Time(40 + r.Intn(40))
		ds := randDataset(r, 5+r.Intn(15), horizon)
		idx, err := Build(ds, Options{
			Bloom:  bloom.Params{M: 128, K: 2},
			Slices: r.Intn(4),
			Params: core.Params{Epsilon: 10, Delta: 6, Weight: timeline.Uniform(horizon)},
			Seed:   seed,
		})
		if err != nil {
			return false
		}
		e1 := r.Float64() * 5
		e2 := e1 + r.Float64()*5
		d1 := timeline.Time(r.Intn(4))
		d2 := d1 + timeline.Time(r.Intn(3))
		q := ds.Attr(history.AttrID(r.Intn(ds.Len())))
		tight, err := idx.Search(q, core.Params{Epsilon: e1, Delta: d1, Weight: timeline.Uniform(horizon)})
		if err != nil {
			return false
		}
		loose, err := idx.Search(q, core.Params{Epsilon: e2, Delta: d2, Weight: timeline.Uniform(horizon)})
		if err != nil {
			return false
		}
		looseSet := make(map[history.AttrID]bool, len(loose.IDs))
		for _, id := range loose.IDs {
			looseSet[id] = true
		}
		for _, id := range tight.IDs {
			if !looseSet[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
