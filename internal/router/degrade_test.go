package router

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/shard"
	"tind/internal/timeline"
)

// This file pins the Router's degradation contract: a dead shard
// degrades the scatter to a typed partial result over the healthy
// shards (never a plain 500, never a silently-shrunken "complete"
// answer), replicas absorb single-backend failures, and request-caused
// failures stay fatal instead of masquerading as degradation.

func testOptions(horizon timeline.Time, shards int) shard.Options {
	monoOpt := index.Options{
		Bloom:   bloom.Params{M: 256, K: 2},
		Slices:  8,
		Params:  core.DefaultDays(horizon),
		Reverse: true,
		Seed:    41,
	}
	return shard.Options{Shards: shards, Seed: 7, Index: shard.PartitionOptions(monoOpt, shards)}
}

func TestRouterPartialResultOnDeadShard(t *testing.T) {
	const horizon = timeline.Time(120)
	ds := genDataset(t, 11, 24, horizon)
	opt := testOptions(horizon, 3)
	cl := startCluster(t, ds, opt)
	r := cl.router
	ctx := context.Background()
	p := core.DefaultDays(horizon)
	o := index.QueryOptions{Mode: index.ModeForward, Params: p}

	// Reference answer while everything is healthy.
	q := ds.Attr(0)
	full, err := r.Query(ctx, q, o)
	if err != nil {
		t.Fatal(err)
	}

	const dead = 1
	cl.servers[dead].Close()

	res, err := r.Query(ctx, q, o)
	if err == nil {
		t.Fatal("query with a dead shard returned nil error")
	}
	if !errors.Is(err, index.ErrPartialResult) {
		t.Fatalf("query with a dead shard returned %v, want ErrPartialResult", err)
	}
	if len(res.Stats.PerShard) != 3 {
		t.Fatalf("partial result PerShard has %d legs, want 3", len(res.Stats.PerShard))
	}
	for s, leg := range res.Stats.PerShard {
		if (s == dead) != leg.Failed() {
			t.Fatalf("leg %d Failed()=%v with shard %d dead", s, leg.Failed(), dead)
		}
	}
	// The partial answer is exactly the healthy shards' contribution:
	// the full answer minus the dead shard's attributes — nothing more
	// missing, nothing bogus added.
	var want []history.AttrID
	for _, id := range full.IDs {
		if history.ShardOf(id, opt.Seed, opt.Shards) != dead {
			want = append(want, id)
		}
	}
	if fmt.Sprint(res.IDs) != fmt.Sprint(want) {
		t.Fatalf("partial IDs %v, want healthy-shard subset %v of full %v", res.IDs, want, full.IDs)
	}

	// The dead shard surfaces on the degradation report, passively from
	// the failed scatter and actively from a probe.
	if got := r.Degraded(); fmt.Sprint(got) != fmt.Sprint([]int{dead}) {
		t.Fatalf("Degraded() = %v after failed scatter, want [%d]", got, dead)
	}
	if got := r.Probe(ctx); fmt.Sprint(got) != fmt.Sprint([]int{dead}) {
		t.Fatalf("Probe() = %v, want [%d]", got, dead)
	}

	// Batched queries degrade the same way, every entry marked.
	batch := []index.BatchQuery{
		{ByID: true, ID: 0, Options: o},
		{ByID: true, ID: 2, Options: index.QueryOptions{Mode: index.ModeReverse, Params: p}},
	}
	bres, err := r.QueryBatch(ctx, batch, index.BatchOptions{})
	if err == nil || !errors.Is(err, index.ErrPartialResult) {
		t.Fatalf("batch with a dead shard returned %v, want ErrPartialResult", err)
	}
	for i, res := range bres {
		if !res.Stats.PerShard[dead].Failed() {
			t.Fatalf("batch entry %d: dead shard's leg unmarked", i)
		}
	}

	// All-pairs discovery is all-or-nothing: no partial complete set.
	if _, err := r.AllPairsContext(ctx, p, 0); err == nil || errors.Is(err, index.ErrPartialResult) {
		t.Fatalf("all-pairs with a dead shard returned %v, want a plain failure", err)
	}

	// With every shard dead the query fails outright — partial means
	// "some shards", never "no shards".
	for s, srv := range cl.servers {
		if s != dead {
			srv.Close()
		}
	}
	if _, err := r.Query(ctx, q, o); err == nil || errors.Is(err, index.ErrPartialResult) {
		t.Fatalf("query with all shards dead returned %v, want a plain failure", err)
	}
}

func TestRouterReplicaFailover(t *testing.T) {
	const horizon = timeline.Time(120)
	ds := genDataset(t, 11, 24, horizon)
	opt := testOptions(horizon, 2)

	// Shard 0 gets two replicas — one immediately dead — plus a healthy
	// shard 1. The dead replica must be absorbed by the retry, not
	// surface as degradation.
	var urls [][]string
	var servers []*httptest.Server
	for s := 0; s < 2; s++ {
		sg, err := shard.BuildSingle(ds, opt, s)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewShardServer(sg).Handler())
		t.Cleanup(srv.Close)
		servers = append(servers, srv)
		urls = append(urls, []string{srv.URL})
	}
	deadReplica := httptest.NewServer(nil)
	deadBase := deadReplica.URL
	deadReplica.Close()
	urls[0] = []string{deadBase, servers[0].URL}

	r, err := New(context.Background(), Options{Shards: urls, LegTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	o := index.QueryOptions{Mode: index.ModeForward, Params: core.DefaultDays(horizon)}
	res, err := r.Query(context.Background(), ds.Attr(0), o)
	if err != nil {
		t.Fatalf("query with one dead replica of a two-replica shard: %v", err)
	}
	for _, leg := range res.Stats.PerShard {
		if leg.Failed() {
			t.Fatalf("leg %d marked failed despite a healthy replica: %s", leg.Shard, leg.Err)
		}
	}
	if got := r.Degraded(); len(got) != 0 {
		t.Fatalf("Degraded() = %v after successful failover, want none", got)
	}
}

func TestRouterFatalErrorsAreNotPartial(t *testing.T) {
	const horizon = timeline.Time(120)
	ds := genDataset(t, 11, 24, horizon)
	cl := startCluster(t, ds, testOptions(horizon, 2))
	r := cl.router
	p := core.DefaultDays(horizon)

	// A server-side option rejection (topk with K=0 passes the wire but
	// fails index validation) is the request's fault: typed
	// ErrInvalidOptions, no retry into a partial result.
	o := index.QueryOptions{Mode: index.ModeTopK, Params: core.Params{Delta: p.Delta, Weight: p.Weight}}
	_, err := r.Query(context.Background(), ds.Attr(0), o)
	if !errors.Is(err, index.ErrInvalidOptions) {
		t.Fatalf("topk with K=0 returned %v, want ErrInvalidOptions", err)
	}
	if errors.Is(err, index.ErrPartialResult) {
		t.Fatalf("request rejection degraded into a partial result: %v", err)
	}
	// A bad request must not mark shards down — nothing is wrong with
	// the shards.
	if got := r.Degraded(); len(got) != 0 {
		t.Fatalf("Degraded() = %v after a rejected request, want none", got)
	}

	// Caller cancellation is fatal and typed, not degradation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = r.Query(ctx, ds.Attr(0), index.QueryOptions{Mode: index.ModeForward, Params: p})
	if !errors.Is(err, index.ErrCanceled) {
		t.Fatalf("canceled query returned %v, want ErrCanceled", err)
	}
	if errors.Is(err, index.ErrPartialResult) {
		t.Fatalf("cancellation degraded into a partial result: %v", err)
	}
}

func TestRouterTopologyValidation(t *testing.T) {
	const horizon = timeline.Time(120)
	ds := genDataset(t, 11, 24, horizon)
	opt := testOptions(horizon, 2)
	var urls []string
	for s := 0; s < 2; s++ {
		sg, err := shard.BuildSingle(ds, opt, s)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewShardServer(sg).Handler())
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}

	if _, err := New(context.Background(), Options{Shards: [][]string{{urls[1]}, {urls[0]}}}); err == nil {
		t.Fatal("New accepted a topology with swapped shard URLs")
	}
	if _, err := New(context.Background(), Options{Shards: [][]string{{urls[0]}}}); err == nil {
		t.Fatal("New accepted a 1-shard topology over a 2-way partition")
	}
	if _, err := New(context.Background(), Options{}); err == nil {
		t.Fatal("New accepted an empty topology")
	}
}
