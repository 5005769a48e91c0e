package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/shard"
	"tind/internal/timeline"
)

// This file pins the distrust boundary of the shard RPC in both
// directions: a router must not believe a shard server's bytes (ids it
// could not own, a topology it does not serve), and a shard server must
// bound what a caller can make it read.

// lyingReplica serves honest's surface except for the given paths, which
// answer the canned JSON bodies instead.
func lyingReplica(t *testing.T, honest http.Handler, lies map[string]interface{}) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if lie, ok := lies[r.URL.Path]; ok {
			WriteJSON(w, lie)
			return
		}
		honest.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestRouterRejectsIDsAShardCannotOwn(t *testing.T) {
	const horizon = timeline.Time(120)
	ds := genDataset(t, 11, 24, horizon)
	opt := testOptions(horizon, 2)
	p := core.DefaultDays(horizon)
	o := index.QueryOptions{Mode: index.ModeForward, Params: p}
	ctx := context.Background()

	honest := make([]*httptest.Server, opt.Shards)
	handlers := make([]http.Handler, opt.Shards)
	for s := range honest {
		sg, err := shard.BuildSingle(ds, opt, s)
		if err != nil {
			t.Fatal(err)
		}
		handlers[s] = NewShardServer(sg).Handler()
		honest[s] = httptest.NewServer(handlers[s])
		t.Cleanup(honest[s].Close)
	}
	var foreign history.AttrID // an id shard 1 does not own
	for history.ShardOf(foreign, opt.Seed, opt.Shards) == 1 {
		foreign++
	}
	outOfRange := history.AttrID(ds.Len() + 5)
	// lone is the lie a replica tells a lone query: a one-entry leg reply.
	lone := func(res index.Result) map[string]interface{} {
		return map[string]interface{}{"/shard/batch": wireBatchResult{Results: []index.Result{res}}}
	}

	for _, tc := range []struct {
		name string
		lies map[string]interface{}
		want string
	}{
		{"query id outside the corpus", lone(index.Result{IDs: []history.AttrID{outOfRange}}), "outside the corpus"},
		{"query id owned by another shard", lone(index.Result{IDs: []history.AttrID{foreign}}), "belongs to shard 0"},
		{"ranked id outside the corpus", lone(index.Result{Ranked: []index.Ranked{{ID: -1}}}), "outside the corpus"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			liar := lyingReplica(t, handlers[1], tc.lies)
			r, err := New(ctx, Options{Shards: [][]string{{honest[0].URL}, {liar.URL}}, LegTimeout: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			// Pre-fix the out-of-range id reached the caller, whose
			// ds.Attr(id) panicked; now the leg degrades, naming the replica.
			res, err := r.Query(ctx, ds.Attr(0), o)
			if !errors.Is(err, index.ErrPartialResult) {
				t.Fatalf("query over a lying shard returned %v, want ErrPartialResult", err)
			}
			leg := res.Stats.PerShard[1]
			if !strings.Contains(leg.Err, tc.want) || !strings.Contains(leg.Err, liar.URL) {
				t.Fatalf("lying leg Err = %q, want it to say %q and name %s", leg.Err, tc.want, liar.URL)
			}
			for _, id := range res.IDs {
				if history.ShardOf(id, opt.Seed, opt.Shards) != 0 {
					t.Fatalf("partial answer carries id %d from the lying shard", id)
				}
			}

			// With an honest second replica the retry absorbs the liar.
			r, err = New(ctx, Options{Shards: [][]string{{honest[0].URL}, {liar.URL, honest[1].URL}}, LegTimeout: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Query(ctx, ds.Attr(0), o); err != nil {
				t.Fatalf("query with an honest replica behind the liar: %v", err)
			}
		})
	}

	t.Run("batch and all-pairs", func(t *testing.T) {
		liar := lyingReplica(t, handlers[1], map[string]interface{}{
			"/shard/batch": wireBatchResult{Results: []index.Result{{}}},
		})
		r, err := New(ctx, Options{Shards: [][]string{{honest[0].URL}, {liar.URL}}, LegTimeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		batch := []index.BatchQuery{{ByID: true, ID: 0, Options: o}, {ByID: true, ID: 1, Options: o}}
		if _, err := r.QueryBatch(ctx, batch, index.BatchOptions{}); !errors.Is(err, index.ErrPartialResult) {
			t.Fatalf("batch answered with the wrong entry count returned %v, want ErrPartialResult", err)
		}

		// A discovery block is a /shard/batch leg: a reply of the right length
		// carrying an id shard 1 does not own fails the whole run.
		block := wireBatchResult{Results: make([]index.Result, ds.Len())}
		block.Results[3].IDs = []history.AttrID{foreign}
		liar = lyingReplica(t, handlers[1], map[string]interface{}{"/shard/batch": block})
		r, err = New(ctx, Options{Shards: [][]string{{honest[0].URL}, {liar.URL}}, LegTimeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := r.AllPairsContext(ctx, p, 0)
		if !errors.Is(err, shard.ErrLegUnavailable) || errors.Is(err, index.ErrPartialResult) || pairs != nil {
			t.Fatalf("all-pairs over a foreign id returned %d pairs, %v; want none and the leg rejected", len(pairs), err)
		}
	})

	// Topology: every reachable replica is validated, not just the first
	// that answers. Pre-fix the honest first replica vouched for the liar.
	t.Run("new validates every replica", func(t *testing.T) {
		liar := lyingReplica(t, handlers[0], map[string]interface{}{
			"/shard/info": Info{ShardID: 0, Shards: 2, Seed: opt.Seed + 1, Attributes: ds.Len(), Horizon: int64(horizon)},
		})
		_, err := New(ctx, Options{Shards: [][]string{{honest[0].URL, liar.URL}, {honest[1].URL}}})
		if err == nil || !strings.Contains(err.Error(), liar.URL) {
			t.Fatalf("New over a replica with a foreign seed returned %v, want an error naming %s", err, liar.URL)
		}
		// An unreachable replica beside a healthy one is not a topology
		// error — that is what replicas are for.
		dead := httptest.NewServer(nil)
		dead.Close()
		if _, err := New(ctx, Options{Shards: [][]string{{dead.URL, honest[0].URL}, {honest[1].URL}}}); err != nil {
			t.Fatalf("New with one dead replica of a two-replica shard: %v", err)
		}
	})
}

func TestShardRPCBoundsItsBodies(t *testing.T) {
	const horizon = timeline.Time(120)
	ds := genDataset(t, 11, 24, horizon)
	sg, err := shard.BuildSingle(ds, testOptions(horizon, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewShardServer(sg).Handler())
	defer srv.Close()

	wp, err := paramsToWire(core.DefaultDays(horizon))
	if err != nil {
		t.Fatal(err)
	}
	entry := wireQuery{Mode: "forward", Attr: 0, Params: wp}
	batchOf := func(n int) []byte {
		wb := wireBatch{Queries: make([]wireQuery, n)}
		for i := range wb.Queries {
			wb.Queries[i] = entry
		}
		buf, err := json.Marshal(wb)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	// A padded entry pushes a lone query's body, and a batch's, past the cap.
	padded := `{"mode":"forward","attr":0,"pad":"` + strings.Repeat("x", shardMaxBody) + `"}`
	hugeQuery := []byte(`{"queries":[` + padded + `]}`)
	hugeBatch := []byte(`{"queries":[{"mode":"forward","attr":0},` + padded + `]}`)

	for _, tc := range []struct {
		name, path string
		body       []byte
		status     int
		want       string
	}{
		{"batch at the entry cap", "/shard/batch", batchOf(shardMaxQueries), http.StatusOK, ""},
		{"batch over the entry cap", "/shard/batch", batchOf(shardMaxQueries + 1), http.StatusBadRequest, "exceeds the limit"},
		{"query body over the byte cap", "/shard/batch", hugeQuery, http.StatusBadRequest, "too large"},
		{"batch body over the byte cap", "/shard/batch", hugeBatch, http.StatusBadRequest, "too large"},
		{"the query route is gone", "/shard/query", batchOf(1), http.StatusNotFound, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+tc.path, "application/json", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			if tc.status == http.StatusOK || tc.status == http.StatusNotFound {
				return
			}
			var we wireError
			if err := json.NewDecoder(resp.Body).Decode(&we); err != nil {
				t.Fatal(err)
			}
			if we.Error.Code != CodeInvalidParameter || !strings.Contains(we.Error.Message, tc.want) {
				t.Fatalf("envelope %+v, want %s mentioning %q", we.Error, CodeInvalidParameter, tc.want)
			}
		})
	}
}

// TestQueryErrorMapping pins the one error→envelope mapping every HTTP
// surface shares. ErrInvalidOptions is the case the two former copies
// disagreed on (400 on the shard RPC, 500 on tindserve's endpoints).
func TestQueryErrorMapping(t *testing.T) {
	for _, tc := range []struct {
		err    error
		status int
		code   string
	}{
		{fmt.Errorf("%w: bad k", index.ErrInvalidOptions), http.StatusBadRequest, CodeInvalidParameter},
		{fmt.Errorf("shard 1: %w", index.ErrDeadlineExceeded), http.StatusGatewayTimeout, CodeDeadlineExceeded},
		{index.ErrCanceled, StatusClientClosedRequest, CodeCanceled},
		{errors.New("disk on fire"), http.StatusInternalServerError, CodeInternal},
	} {
		rec := httptest.NewRecorder()
		QueryError(rec, tc.err)
		var we wireError
		if err := json.NewDecoder(rec.Body).Decode(&we); err != nil {
			t.Fatal(err)
		}
		if rec.Code != tc.status || we.Error.Code != tc.code || we.Error.Message != tc.err.Error() {
			t.Errorf("QueryError(%v) = %d %+v, want %d %s", tc.err, rec.Code, we.Error, tc.status, tc.code)
		}
	}
}
