package router

import (
	"context"
	"slices"
	"testing"

	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/shard"
	"tind/internal/timeline"
)

// TestShardOwnershipAgreement pins the ownership agreement between the
// partition function and the serving partition: every attribute lands on
// exactly the shard that shard.BuildSingle — and therefore every shard
// server behind a router — claims to own, in ascending global order
// (OwnedGlobals). A drift here would make a shard
// server silently answer for attributes whose index it never built.
func TestShardOwnershipAgreement(t *testing.T) {
	const horizon = timeline.Time(100)
	ds := genDataset(t, 31, 40, horizon)
	opt := testOptions(horizon, 4)
	seed, shards := opt.Seed, opt.Shards

	owners := make([]int, ds.Len())
	for s := 0; s < shards; s++ {
		sg, err := shard.BuildSingle(ds, opt, s)
		if err != nil {
			t.Fatal(err)
		}
		owned := sg.Globals()
		if want := shard.OwnedGlobals(ds.Len(), seed, shards, s); !slices.Equal(owned, want) {
			t.Fatalf("shard %d owns %v, OwnedGlobals says %v", s, owned, want)
		}
		for _, g := range owned {
			if history.ShardOf(g, seed, shards) != s {
				t.Fatalf("shard %d claims global %d, ShardOf assigns %d", s, g, history.ShardOf(g, seed, shards))
			}
			owners[g]++
		}
	}
	for g, n := range owners {
		if n != 1 {
			t.Fatalf("global %d is owned by %d shards, want 1", g, n)
		}
	}

	// End to end: topology validation alone proves the servers agree
	// with the partition on (seed, shards, corpus size).
	cl := startCluster(t, ds, opt)
	if info := cl.router.Info(); info.Seed != seed || info.Shards != shards || info.Attributes != ds.Len() {
		t.Fatalf("router topology %+v disagrees with the partition (seed %d, %d shards, %d attributes)",
			info, seed, shards, ds.Len())
	}
	o := index.QueryOptions{Mode: index.ModeForward, Params: core.DefaultDays(horizon)}
	if _, err := cl.router.Query(context.Background(), ds.Attr(0), o); err != nil {
		t.Fatal(err)
	}
}
