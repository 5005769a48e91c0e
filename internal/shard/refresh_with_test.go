package shard

import (
	"context"
	"fmt"
	"testing"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/timeline"
)

// TestShardedRefreshWithParity exercises the live-ingestion path: the
// global dataset is mutated clone-and-replace style inside RefreshWith's
// prepare (the discipline the ingester uses, so published histories stay
// immutable), and afterwards the partition must answer exactly like a
// fresh build over the evolved dataset. A query pointer resolved before
// the swap must still route to the owning shard's by-local-id path so
// self-exclusion keeps firing.
func TestShardedRefreshWithParity(t *testing.T) {
	const (
		horizon0 = timeline.Time(60)
		horizon1 = timeline.Time(70)
		nShards  = 3
	)
	ds := genDataset(t, 411, 18, horizon0)
	p := core.Params{Epsilon: 3.0, Delta: 2, Weight: timeline.Uniform(horizon0)}
	opt := index.Options{
		Bloom:   bloom.Params{M: 256, K: 2},
		Slices:  3,
		Params:  p,
		Reverse: true,
		Seed:    411,
	}
	sx, err := Build(ds, Options{Shards: nShards, Seed: 5, Index: opt})
	if err != nil {
		t.Fatal(err)
	}

	changed := []history.AttrID{0, 3, 7}
	stale := make([]*history.History, len(changed))
	for i, g := range changed {
		stale[i] = ds.Attr(g)
	}

	err = sx.RefreshWith(horizon1, func(gds *history.Dataset) ([]history.AttrID, error) {
		if err := gds.ExtendHorizon(horizon1); err != nil {
			return nil, err
		}
		for _, g := range changed {
			clone := gds.Attr(g).Clone()
			start := clone.ObservedUntil()
			vals := clone.At(start - 1)
			if vals.Len() > 1 {
				vals = vals[:vals.Len()-1]
			}
			if err := clone.Append(start, vals, horizon1); err != nil {
				return nil, err
			}
			if err := gds.Replace(g, clone); err != nil {
				return nil, err
			}
		}
		return changed, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Clone-and-replace must be visible through the global dataset, and
	// the stale pointers must be genuinely distinct published versions.
	for i, g := range changed {
		if ds.Attr(g) == stale[i] {
			t.Fatalf("attr %d was not swapped for a clone", g)
		}
		if ds.Attr(g).ObservedUntil() != horizon1 {
			t.Fatalf("attr %d observation end %d, want %d", g, ds.Attr(g).ObservedUntil(), horizon1)
		}
	}

	p1 := core.Params{Epsilon: 3.0, Delta: 2, Weight: timeline.Uniform(horizon1)}
	opt1 := opt
	opt1.Params = p1
	rebuilt, err := Build(ds, Options{Shards: nShards, Seed: 5, Index: opt1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for g := 0; g < ds.Len(); g++ {
		q := ds.Attr(history.AttrID(g))
		for _, mode := range []index.Mode{index.ModeForward, index.ModeReverse} {
			a, err := sx.Query(ctx, q, index.QueryOptions{Mode: mode, Params: p1})
			if err != nil {
				t.Fatal(err)
			}
			b, err := rebuilt.Query(ctx, q, index.QueryOptions{Mode: mode, Params: p1})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(a.IDs) != fmt.Sprint(b.IDs) {
				t.Fatalf("q=%d %v: refreshed %v, rebuilt %v", g, mode, a.IDs, b.IDs)
			}
		}
	}

	// Stale pre-swap pointers still run by id: the answer matches
	// a fresh-pointer query, and self-exclusion holds.
	for i, g := range changed {
		a, err := sx.Query(ctx, stale[i], index.QueryOptions{Mode: index.ModeForward, Params: p1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := sx.Query(ctx, ds.Attr(g), index.QueryOptions{Mode: index.ModeForward, Params: p1})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a.IDs) != fmt.Sprint(b.IDs) {
			t.Fatalf("attr %d: stale-pointer result %v, fresh-pointer result %v", g, a.IDs, b.IDs)
		}
		for _, rhs := range a.IDs {
			if rhs == g {
				t.Fatalf("attr %d: self-pair leaked through stale-pointer query", g)
			}
		}
	}
}
