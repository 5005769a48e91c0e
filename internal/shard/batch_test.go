package shard

import (
	"context"
	"errors"
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

// batchForAll builds one batch covering every attribute with a rotation
// of modes and addressing styles (ByID vs resolved history).
func batchForAll(ds *history.Dataset, p core.Params) []index.BatchQuery {
	var batch []index.BatchQuery
	for i := 0; i < ds.Len(); i++ {
		id := history.AttrID(i)
		o := index.QueryOptions{Params: p}
		switch i % 3 {
		case 0:
			o.Mode = index.ModeForward
		case 1:
			o.Mode = index.ModeReverse
		default:
			o.Mode = index.ModeTopK
			o.K = 1 + i%5
		}
		if i%2 == 0 {
			batch = append(batch, index.BatchQuery{ByID: true, ID: id, Options: o})
		} else {
			batch = append(batch, index.BatchQuery{Query: ds.Attr(id), Options: o})
		}
	}
	return batch
}

// TestShardedQueryBatchMatchesQueryAndOracle is the sharded batch
// differential for shard counts {1, 4}: ShardedIndex.QueryBatch must
// agree bit-for-bit with per-query ShardedIndex.Query, with the
// monolith's QueryBatch, and with the oracle's violation matrix.
func TestShardedQueryBatchMatchesQueryAndOracle(t *testing.T) {
	const horizon = timeline.Time(120)
	ds := genDataset(t, 908, 24, horizon)
	w := timeline.Uniform(horizon)
	total := w.Sum(timeline.NewInterval(0, horizon))
	p := core.Params{Epsilon: 0.04 * total, Delta: 2, Weight: w}
	monoOpt := index.Options{
		Bloom:   bloom.Params{M: 256, K: 2},
		Slices:  8,
		Params:  p,
		Reverse: true,
		Seed:    908,
	}
	tol := diffTol(w)
	vio := vioMatrix(ds, p)
	ctx := context.Background()
	batch := batchForAll(ds, p)

	for _, n := range []int{1, 4} {
		n := n
		t.Run(fmt.Sprintf("shards%d", n), func(t *testing.T) {
			t.Parallel()
			mono, sx := buildPair(t, ds, monoOpt, n, 78)

			got, err := sx.QueryBatch(ctx, batch, index.BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(batch) {
				t.Fatalf("got %d results for %d sub-queries", len(got), len(batch))
			}
			mgot, err := mono.QueryBatch(ctx, batch, index.BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}

			for i, bq := range batch {
				q := bq.Query
				if bq.ByID {
					q = ds.Attr(bq.ID)
				}
				want, err := sx.Query(ctx, q, bq.Options)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got[i].IDs) != fmt.Sprint(want.IDs) {
					t.Fatalf("entry %d (mode %v): sharded batch %v, sharded query %v",
						i, bq.Options.Mode, got[i].IDs, want.IDs)
				}
				if fmt.Sprint(got[i].Ranked) != fmt.Sprint(want.Ranked) {
					t.Fatalf("entry %d: sharded batch ranked %v, sharded query %v",
						i, got[i].Ranked, want.Ranked)
				}
				if fmt.Sprint(got[i].IDs) != fmt.Sprint(mgot[i].IDs) ||
					fmt.Sprint(got[i].Ranked) != fmt.Sprint(mgot[i].Ranked) {
					t.Fatalf("entry %d: sharded batch deviates from monolith batch", i)
				}
				if got[i].Stats.Timings.Total <= 0 {
					t.Fatalf("entry %d: Timings.Total not populated", i)
				}

				self := q.ID()
				switch bq.Options.Mode {
				case index.ModeForward:
					checkIDSet(t, fmt.Sprintf("entry %d forward", i), got[i].IDs, self, vio[self], p.Epsilon, tol)
				case index.ModeReverse:
					dir := make([]float64, ds.Len())
					for ai := 0; ai < ds.Len(); ai++ {
						dir[ai] = vio[ai][self]
					}
					checkIDSet(t, fmt.Sprintf("entry %d reverse", i), got[i].IDs, self, dir, p.Epsilon, tol)
				case index.ModeTopK:
					checkTopK(t, fmt.Sprintf("entry %d topk", i), got[i].Ranked, self, vio[self], bq.Options.K, tol)
				}
			}
		})
	}
}

func TestShardedQueryBatchValidation(t *testing.T) {
	ds := genDataset(t, 909, 8, 60)
	p := core.Params{Epsilon: 2, Delta: 1, Weight: timeline.Uniform(60)}
	sx, err := Build(ds, Options{Shards: 2, Seed: 3, Index: index.Options{
		Bloom: bloom.Params{M: 128, K: 2}, Slices: 2, Params: p,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if res, err := sx.QueryBatch(ctx, nil, index.BatchOptions{}); err != nil || res != nil {
		t.Fatalf("empty batch: got (%v, %v), want (nil, nil)", res, err)
	}
	bad := [][]index.BatchQuery{
		{{Options: index.QueryOptions{Mode: index.ModeForward, Params: p}}},
		{{ByID: true, ID: history.AttrID(100), Options: index.QueryOptions{Mode: index.ModeForward, Params: p}}},
	}
	for i, batch := range bad {
		if _, err := sx.QueryBatch(ctx, batch, index.BatchOptions{}); !errors.Is(err, index.ErrInvalidOptions) {
			t.Errorf("bad batch %d: err %v, want ErrInvalidOptions", i, err)
		}
	}
	if _, err := sx.QueryBatch(ctx,
		[]index.BatchQuery{{ByID: true, ID: 0, Options: index.QueryOptions{Mode: index.ModeForward, Params: p}}},
		index.BatchOptions{Workers: -2}); !errors.Is(err, index.ErrInvalidOptions) {
		t.Errorf("negative workers: err %v, want ErrInvalidOptions", err)
	}
}

// TestShardedQueryBatchRacesIngest hammers QueryBatch against live
// refresh: one goroutine evolves the attributes of a single shard and
// refreshes, while batch queriers keep issuing full-corpus batches (which
// necessarily scatter to the mutating shard too — its index reads only
// its own copies of the appended histories, under the shard lock).
// Afterwards the partition must answer exactly like a fresh build.
func TestShardedQueryBatchRacesIngest(t *testing.T) {
	const (
		horizon0 = timeline.Time(80)
		nShards  = 4
		rounds   = 12
		step     = timeline.Time(2)
	)
	ds := genDataset(t, 910, 20, horizon0)
	p := core.Params{Epsilon: 3.5, Delta: 2, Weight: timeline.Uniform(horizon0)}
	opt := index.Options{
		Bloom:   bloom.Params{M: 256, K: 2},
		Slices:  4,
		Params:  p,
		Reverse: true,
		Seed:    910,
	}
	sx, err := Build(ds, Options{Shards: nShards, Seed: 9, Index: opt})
	if err != nil {
		t.Fatal(err)
	}

	mutShard := sx.ShardOwner(0)
	var mutAttrs []history.AttrID
	for g := 0; g < ds.Len(); g++ {
		if sx.ShardOwner(history.AttrID(g)) == mutShard {
			mutAttrs = append(mutAttrs, history.AttrID(g))
		}
	}

	// Batches address only attributes outside the mutating shard (their
	// histories are never appended to concurrently), but every batch still
	// scatters to all shards including the mutating one.
	var batch []index.BatchQuery
	for g := 0; g < ds.Len(); g++ {
		if sx.ShardOwner(history.AttrID(g)) == mutShard {
			continue
		}
		o := index.QueryOptions{Mode: index.ModeForward, Params: p}
		if g%3 == 1 {
			o.Mode = index.ModeReverse
		} else if g%3 == 2 {
			o.Mode = index.ModeTopK
			o.K = 4
		}
		batch = append(batch, index.BatchQuery{ByID: true, ID: history.AttrID(g), Options: o})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		r := rand.New(rand.NewSource(2))
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
					vals = vals[:vals.Len()-1]
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
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sx.QueryBatch(ctx, batch, index.BatchOptions{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	finalH := horizon0 + timeline.Time(rounds)*step
	p2 := core.Params{Epsilon: 3.5, Delta: 2, Weight: timeline.Uniform(finalH)}
	opt2 := opt
	opt2.Params = p2
	rebuilt, err := Build(ds, Options{Shards: nShards, Seed: 9, Index: PartitionOptions(opt2, nShards)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var finalBatch []index.BatchQuery
	for g := 0; g < ds.Len(); g++ {
		for _, mode := range []index.Mode{index.ModeForward, index.ModeReverse} {
			finalBatch = append(finalBatch, index.BatchQuery{ByID: true, ID: history.AttrID(g),
				Options: index.QueryOptions{Mode: mode, Params: p2}})
		}
	}
	got, err := sx.QueryBatch(ctx, finalBatch, index.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, bq := range finalBatch {
		want, err := rebuilt.Query(ctx, ds.Attr(bq.ID), bq.Options)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got[i].IDs) != fmt.Sprint(want.IDs) {
			t.Fatalf("entry %d after hammer: refreshed batch %v, rebuilt %v", i, got[i].IDs, want.IDs)
		}
	}
}
