package shard

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/timeline"
)

// TestRefreshAdvancesEveryShard: every shard indexes the global dataset's
// own histories, and a refresh that changes only shard 0's attributes
// still advances every shard's weight horizon to the monolith's. M_R and
// the reverse slices serve only queries under the index weight, so each
// shard now takes a reverse query under the new horizon down the same
// path as the monolith — and answers as it does.
func TestRefreshAdvancesEveryShard(t *testing.T) {
	const (
		horizon0 = timeline.Time(60)
		horizon1 = timeline.Time(66)
		nShards  = 3
	)
	ds := genDataset(t, 913, 21, horizon0)
	opt := index.Options{
		Bloom:   bloom.Params{M: 256, K: 2},
		Slices:  3,
		Params:  core.Params{Epsilon: 3.5, Delta: 2, Weight: timeline.Uniform(horizon0)},
		Reverse: true,
		Seed:    913,
	}
	mono, sx := buildPair(t, ds, opt, nShards, 4)
	changed := OwnedGlobals(ds.Len(), 4, nShards, 0)
	if len(changed) == 0 || len(changed) == ds.Len() {
		t.Fatalf("degenerate partition: shard 0 owns %d of %d attributes", len(changed), ds.Len())
	}
	if err := sx.RefreshWith(horizon1, appendClones(changed, horizon1, rand.New(rand.NewSource(913)))); err != nil {
		t.Fatal(err)
	}
	if err := mono.Refresh(changed, horizon1); err != nil {
		t.Fatal(err)
	}

	want := mono.Options().Params.Weight
	for s := range nShards {
		if got := sx.Shard(s).Dataset(); got != ds {
			t.Errorf("shard %d indexes a dataset of its own, not the global one", s)
		}
		if got := sx.Shard(s).Options().Params.Weight; got != want {
			t.Errorf("shard %d has weight %#v after the refresh, the monolith %#v", s, got, want)
		}
	}

	p := core.Params{Epsilon: 3.5, Delta: 2, Weight: want}
	ctx := context.Background()
	for g := range ds.Attrs() {
		o := index.QueryOptions{Mode: index.ModeReverse, Params: p}
		a, err := sx.Query(ctx, ds.Attr(history.AttrID(g)), o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mono.Query(ctx, ds.Attr(history.AttrID(g)), o)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a.IDs) != fmt.Sprint(b.IDs) {
			t.Fatalf("reverse q=%d: sharded %v, monolith %v", g, a.IDs, b.IDs)
		}
	}
}

// appendClones is a RefreshWith prepare that extends the horizon to h and
// appends one version up to h to each of attrs, clone-and-replace: the
// published histories, which queries may be reading, never change. Half
// the appends drop a value, so they create fresh violations.
func appendClones(attrs []history.AttrID, h timeline.Time, r *rand.Rand) func(*history.Dataset) ([]history.AttrID, error) {
	return func(ds *history.Dataset) ([]history.AttrID, error) {
		if err := ds.ExtendHorizon(h); err != nil {
			return nil, err
		}
		for _, g := range attrs {
			hh := ds.Attr(g).Clone()
			start := hh.ObservedUntil()
			vals := hh.At(start - 1)
			if r.Intn(2) == 0 && vals.Len() > 1 {
				vals = vals[:vals.Len()-1]
			}
			if err := hh.Append(start, vals, h); err != nil {
				return nil, err
			}
			if err := ds.Replace(g, hh); err != nil {
				return nil, err
			}
		}
		return attrs, nil
	}
}
