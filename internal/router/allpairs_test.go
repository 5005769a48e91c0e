package router

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"tind/internal/core"
	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/oracle"
	"tind/internal/shard"
	"tind/internal/timeline"
)

// discoverer is the one all-pairs signature of the three tiers.
type discoverer interface {
	AllPairsContext(ctx context.Context, p core.Params, workers int) ([]index.Pair, error)
}

// tiers builds the monolith, a 4-shard ShardedIndex and, if asked, a
// 2-shard Router over httptest shard servers, all over ds.
func tiers(t *testing.T, ds *history.Dataset, mono index.Options, routed bool) map[string]discoverer {
	t.Helper()
	idx, err := index.Build(ds, mono)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := shard.Build(ds, shard.Options{Shards: 4, Seed: 7, Index: shard.PartitionOptions(mono, 4)})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]discoverer{"monolith": idx, "sharded": sx}
	if routed {
		out["router"] = startCluster(t, ds, shard.Options{Shards: 2, Seed: 7, Index: shard.PartitionOptions(mono, 2)}).router
	}
	return out
}

// TestAllPairsAtBlockEdges: discovery runs in blocks of index.BlockEntries
// forward queries on every tier, so corpora of 0, 1 and one attribute
// either side of one and two full blocks must still yield exactly the
// oracle's pairs, in the oracle's order, whatever the worker count. The
// corpora are prefixes of one generated dataset: a pair holds or not
// whatever else is indexed, so one pass of the oracle judges them all —
// slow by design, hence the short horizon and oracle.AllPairs' loop over
// ForwardSet spread over the cores.
func TestAllPairsAtBlockEdges(t *testing.T) {
	const horizon = timeline.Time(24)
	const b = index.BlockEntries
	p := core.Params{Epsilon: 2, Delta: 1, Weight: timeline.Uniform(horizon)}
	opt := testOptions(horizon, 1).Index
	opt.Params = p
	full := genDataset(t, 77, 2*b+1, horizon)
	rhs := make([][]history.AttrID, full.Len())
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := w; q < full.Len(); q += runtime.GOMAXPROCS(0) {
				rhs[q] = oracle.ForwardSet(full, full.Attr(history.AttrID(q)), p)
			}
		}(w)
	}
	wg.Wait()
	ctx := context.Background()
	for _, n := range []int{0, 1, b - 1, b, b + 1, 2*b + 1} {
		ds := full.Subset(n) // the first n attributes keep their ids
		var want []index.Pair
		for q := 0; q < n; q++ {
			for _, a := range rhs[q] {
				if int(a) < n {
					want = append(want, index.Pair{LHS: history.AttrID(q), RHS: a})
				}
			}
		}
		for name, d := range tiers(t, ds, opt, true) {
			for _, workers := range []int{1, 3} {
				got, err := d.AllPairsContext(ctx, p, workers)
				if err != nil {
					t.Fatalf("n=%d %s workers=%d: %v", n, name, workers, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("n=%d %s workers=%d: %d pairs, oracle %d:\n%v\n%v", n, name, workers, len(got), len(want), got, want)
				}
			}
		}
	}
}

// TestAllPairsCountsPinned pins the discovery output of cmd/allpairs'
// default corpus (seed 1, horizon 1500) at 2 000 and 8 000 attributes to
// what per-attribute queries and shard-pair blocks found before discovery
// became a client of the batch path (the router tier at 2 000 only: three
// 8 000-attribute builds are slow under the race detector).
func TestAllPairsCountsPinned(t *testing.T) {
	for _, tc := range []struct{ attrs, pairs int }{{2000, 985}, {8000, 5783}} {
		t.Run(fmt.Sprint(tc.attrs), func(t *testing.T) {
			if testing.Short() && tc.attrs > 2000 {
				t.Skip("builds two 8 000-attribute indexes")
			}
			c, err := datagen.Generate(datagen.Config{Seed: 1, Attributes: tc.attrs, Horizon: 1500})
			if err != nil {
				t.Fatal(err)
			}
			ds := c.Dataset
			p := core.DefaultDays(ds.Horizon())
			opt := index.DefaultOptions(ds.Horizon())
			opt.Seed = 1
			var first []index.Pair
			for name, d := range tiers(t, ds, opt, tc.attrs <= 2000) {
				got, err := d.AllPairsContext(context.Background(), p, 0)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(got) != tc.pairs {
					t.Fatalf("%s found %d pairs, pinned %d", name, len(got), tc.pairs)
				}
				if first == nil {
					first = got
				} else if !slices.Equal(got, first) {
					t.Fatalf("%s disagrees with another tier on the pairs or their order", name)
				}
			}
		})
	}
}
