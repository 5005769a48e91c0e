package index

import (
	"context"
	"testing"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/timeline"
	"tind/internal/values"
)

func TestEmptyDataset(t *testing.T) {
	ds := history.NewDataset(10)
	idx, err := Build(ds, Options{
		Bloom: bloom.Params{M: 64, K: 1}, Slices: 2,
		Params: core.DefaultDays(10), Reverse: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Query with an ad-hoc attribute.
	q, err := history.New(history.Meta{Page: "q"},
		[]history.Version{{Start: 0, Values: values.NewSet(1)}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := idx.Search(q, core.DefaultDays(10))
	if err != nil || len(res.IDs) != 0 {
		t.Fatalf("empty dataset search: %v, %v", res.IDs, err)
	}
	rres, err := idx.Reverse(q, core.DefaultDays(10))
	if err != nil || len(rres.IDs) != 0 {
		t.Fatalf("empty dataset reverse: %v, %v", rres.IDs, err)
	}
	pairs, err := idx.AllPairsContext(context.Background(), core.DefaultDays(10), 2)
	if err != nil || len(pairs) != 0 {
		t.Fatalf("empty dataset all-pairs: %v, %v", pairs, err)
	}
}

func TestSingleAttribute(t *testing.T) {
	ds := history.NewDataset(20)
	h, err := history.New(history.Meta{Page: "only"},
		[]history.Version{{Start: 0, Values: values.NewSet(1, 2)}}, 20)
	if err != nil {
		t.Fatal(err)
	}
	ds.Add(h)
	idx, err := Build(ds, Options{
		Bloom: bloom.Params{M: 64, K: 1}, Slices: 4, Params: core.DefaultDays(20),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := idx.Search(h, core.DefaultDays(20))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 0 {
		t.Fatal("reflexive result must be excluded")
	}
}

func TestHorizonOne(t *testing.T) {
	ds := history.NewDataset(1)
	mk := func(vals ...values.Value) *history.History {
		h, err := history.New(history.Meta{Page: "p"},
			[]history.Version{{Start: 0, Values: values.NewSet(vals...)}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		ds.Add(h)
		return h
	}
	small := mk(1)
	mk(1, 2)
	idx, err := Build(ds, Options{
		Bloom:  bloom.Params{M: 64, K: 1},
		Slices: 3, // cannot fit, must degrade gracefully
		Params: core.Params{Epsilon: 0, Delta: 0, Weight: timeline.Uniform(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := idx.Search(small, core.Strict(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 1 {
		t.Fatalf("single-day strict search: %v", res.IDs)
	}
}

func TestQueryInvalidParams(t *testing.T) {
	ds := history.NewDataset(10)
	h, _ := history.New(history.Meta{Page: "p"},
		[]history.Version{{Start: 0, Values: values.NewSet(1)}}, 10)
	ds.Add(h)
	idx, err := Build(ds, Options{Bloom: bloom.Params{M: 64, K: 1}, Params: core.DefaultDays(10)})
	if err != nil {
		t.Fatal(err)
	}
	bad := core.Params{Epsilon: -1, Delta: 0, Weight: timeline.Uniform(10)}
	if _, err := idx.Search(h, bad); err == nil {
		t.Error("negative ε must be rejected")
	}
	if _, err := idx.Reverse(h, bad); err == nil {
		t.Error("negative ε must be rejected in reverse")
	}
	if _, err := idx.AllPairsContext(context.Background(), bad, 1); err == nil {
		t.Error("negative ε must be rejected in all-pairs")
	}
}

func TestDefaultOptionProfiles(t *testing.T) {
	o := DefaultOptions(100)
	if o.Bloom.M != 4096 || o.Slices != 4 || o.Strategy != Random || o.Reverse {
		t.Fatalf("DefaultOptions = %+v", o)
	}
	r := DefaultReverseOptions(100)
	if r.Bloom.M != 512 || r.Slices != 2 || r.Strategy != WeightedRandom || !r.Reverse {
		t.Fatalf("DefaultReverseOptions = %+v", r)
	}
}
