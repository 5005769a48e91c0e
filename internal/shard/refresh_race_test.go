package shard

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/timeline"
)

// TestShardLocalRefreshRacesCrossShardQueries hammers the operational
// claim of per-shard refresh: while one goroutine repeatedly appends
// to the attributes of a single shard and refreshes the partition,
// query goroutines keep issuing forward/reverse/top-k queries for
// attributes owned by the *other* shards. Under -race this pins the
// locking discipline — the refresh contract only forbids concurrent use
// of the histories being appended, and queries here never touch them.
// Afterwards the refreshed partition must agree exactly with a fresh
// build over the evolved dataset.
func TestShardLocalRefreshRacesCrossShardQueries(t *testing.T) {
	const (
		horizon0 = timeline.Time(80)
		nShards  = 4
		rounds   = 20
		step     = timeline.Time(2)
	)
	ds := genDataset(t, 907, 24, horizon0)
	p := core.Params{Epsilon: 3.5, Delta: 2, Weight: timeline.Uniform(horizon0)}
	opt := index.Options{
		Bloom:   bloom.Params{M: 256, K: 2},
		Slices:  4,
		Params:  p,
		Reverse: true,
		Seed:    907,
	}
	sx, err := Build(ds, Options{Shards: nShards, Seed: 9, Index: opt})
	if err != nil {
		t.Fatal(err)
	}

	mutShard := sx.ShardOwner(0)
	var mutAttrs, queryAttrs []history.AttrID
	for g := 0; g < ds.Len(); g++ {
		if sx.ShardOwner(history.AttrID(g)) == mutShard {
			mutAttrs = append(mutAttrs, history.AttrID(g))
		} else {
			queryAttrs = append(queryAttrs, history.AttrID(g))
		}
	}
	if len(mutAttrs) == 0 || len(queryAttrs) == 0 {
		t.Fatalf("degenerate partition: %d mutating / %d querying attributes", len(mutAttrs), len(queryAttrs))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Refresher: evolve only mutShard's attributes, refresh the partition.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		r := rand.New(rand.NewSource(1))
		h := horizon0
		for round := 0; round < rounds; round++ {
			h += step
			if err := ds.ExtendHorizon(h); err != nil {
				t.Error(err)
				return
			}
			for _, g := range mutAttrs {
				hh := ds.Attr(g)
				start := hh.ObservedUntil()
				vals := hh.At(start - 1)
				if r.Intn(2) == 0 && vals.Len() > 1 {
					vals = vals[:vals.Len()-1] // drop a value: fresh violations
				}
				if err := hh.Append(start, vals, h); err != nil {
					t.Error(err)
					return
				}
			}
			if err := sx.Refresh(mutAttrs, h); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Cross-shard queriers: all modes, attributes owned by other shards.
	modes := []index.Mode{index.ModeForward, index.ModeReverse, index.ModeTopK}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				g := queryAttrs[(i*7+w)%len(queryAttrs)]
				o := index.QueryOptions{Mode: modes[(i+w)%len(modes)], Params: p}
				if o.Mode == index.ModeTopK {
					o.K = 5
				}
				if _, err := sx.Query(ctx, ds.Attr(g), o); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// The hammered partition must answer exactly like a fresh build over
	// the evolved dataset.
	finalH := horizon0 + timeline.Time(rounds)*step
	p2 := core.Params{Epsilon: 3.5, Delta: 2, Weight: timeline.Uniform(finalH)}
	opt2 := opt
	opt2.Params = p2
	rebuilt, err := Build(ds, Options{Shards: nShards, Seed: 9, Index: PartitionOptions(opt2, nShards)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for qi := 0; qi < ds.Len(); qi++ {
		q := ds.Attr(history.AttrID(qi))
		for _, mode := range []index.Mode{index.ModeForward, index.ModeReverse} {
			a, err := sx.Query(ctx, q, index.QueryOptions{Mode: mode, Params: p2})
			if err != nil {
				t.Fatal(err)
			}
			b, err := rebuilt.Query(ctx, q, index.QueryOptions{Mode: mode, Params: p2})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(a.IDs) != fmt.Sprint(b.IDs) {
				t.Fatalf("q=%d %v after hammer: refreshed %v, rebuilt %v", qi, mode, a.IDs, b.IDs)
			}
		}
	}
}
