package index

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/timeline"
)

func bruteTopK(ds *history.Dataset, q *history.History, delta timeline.Time,
	w timeline.WeightFunc, k int) []Ranked {
	p := core.Params{Epsilon: 0, Delta: delta, Weight: w}
	var all []Ranked
	for _, a := range ds.Attrs() {
		if a == q {
			continue
		}
		all = append(all, Ranked{ID: a.ID(), Violation: core.ViolationWeight(q, a, p)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Violation != all[j].Violation {
			return all[i].Violation < all[j].Violation
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// topK runs a ModeTopK query and returns its ranking.
func topK(x *Index, q *history.History, delta timeline.Time, w timeline.WeightFunc, k int) ([]Ranked, error) {
	res, err := x.Query(context.Background(), q, QueryOptions{
		Mode: ModeTopK, Params: core.Params{Delta: delta, Weight: w}, K: k,
	})
	return res.Ranked, err
}

func TestTopKMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		horizon := timeline.Time(40 + r.Intn(40))
		ds := randDataset(r, 6+r.Intn(15), horizon)
		idx, err := Build(ds, Options{
			Bloom:  bloom.Params{M: 128, K: 2},
			Slices: r.Intn(4),
			Params: core.Params{Epsilon: 1, Delta: 3, Weight: timeline.Uniform(horizon)},
			Seed:   seed,
		})
		if err != nil {
			return false
		}
		w := timeline.Uniform(horizon)
		k := 1 + r.Intn(5)
		q := ds.Attr(history.AttrID(r.Intn(ds.Len())))
		got, err := topK(idx, q, 2, w, k)
		if err != nil {
			return false
		}
		want := bruteTopK(ds, q, 2, w, k)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			// Violations must match exactly; ids may differ only among
			// equal violations (we use a deterministic tie-break, so they
			// must match too).
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKMoreThanExist(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	ds := randDataset(r, 5, 50)
	idx := buildTestIndex(t, ds, Options{
		Bloom: bloom.Params{M: 128, K: 2}, Slices: 2,
		Params: core.DefaultDays(50), Seed: 1,
	})
	got, err := topK(idx, ds.Attr(0), 3, timeline.Uniform(50), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 { // everything except the query itself
		t.Fatalf("got %d results, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Violation < got[i-1].Violation {
			t.Fatal("ranking not sorted")
		}
	}
}
