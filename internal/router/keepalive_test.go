package router

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/shard"
)

// TestLegReusesConnections pins that a leg reads every reply to EOF before
// closing it: a body closed early costs the client its keep-alive
// connection, and json.Decoder stops short of the terminator of a chunked
// reply — which a 32-entry top-k batch always is. 50 sequential batches
// must ride on at most two connections per shard server, not one each.
func TestLegReusesConnections(t *testing.T) {
	const horizon = 120
	ds := genDataset(t, 17, 80, horizon)
	opt := testOptions(horizon, 2)
	conns := make([]atomic.Int64, opt.Shards)
	urls := make([][]string, opt.Shards)
	for s := 0; s < opt.Shards; s++ {
		sg, err := shard.BuildSingle(ds, opt, s)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewUnstartedServer(NewShardServer(sg).Handler())
		srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				conns[s].Add(1)
			}
		}
		srv.Start()
		t.Cleanup(srv.Close)
		urls[s] = []string{srv.URL}
	}
	r, err := New(context.Background(), Options{Shards: urls, LegTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	o := index.QueryOptions{Mode: index.ModeTopK, K: 20, Params: core.DefaultDays(horizon)}
	batch := make([]index.BatchQuery, 32)
	for b := 0; b < 50; b++ {
		for i := range batch {
			batch[i] = index.BatchQuery{ByID: true, ID: history.AttrID((b*len(batch) + i) % ds.Len()), Options: o}
		}
		if _, err := r.QueryBatch(context.Background(), batch, index.BatchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for s := range conns {
		if n := conns[s].Load(); n > 2 {
			t.Errorf("shard server %d accepted %d connections for 50 batches, want at most 2", s, n)
		}
	}
}
