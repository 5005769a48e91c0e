package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestRetryAfterHint pins the readiness-derived Retry-After contract:
// the hint reflects why the request was turned away instead of a flat
// "1" — transient saturation clears in a second, degradation on the
// apply/probe cadence, and a corpus still loading predicts its own
// remaining time when a WAL replay is measuring one, clamped to the
// [1,30]s band.
func TestRetryAfterHint(t *testing.T) {
	cases := []struct {
		name   string
		reason string
		setup  func(s *server)
		want   string
	}{
		{name: "build in progress", reason: shedNotReady, want: "5"},
		{name: "saturated", reason: shedSaturated, want: "1"},
		{name: "degraded", reason: shedDegraded, want: "2"},
		{name: "replay almost done", reason: shedNotReady, want: "1",
			setup: func(s *server) {
				s.replay.total.Store(1000)
				s.replay.done.Store(999)
				s.replay.startNano.Store(time.Now().Add(-10 * time.Second).UnixNano())
				s.replay.active.Store(true)
			}},
		{name: "replay crawling clamps to 30", reason: shedNotReady, want: "30",
			setup: func(s *server) {
				s.replay.total.Store(1_000_000)
				s.replay.done.Store(10)
				s.replay.startNano.Store(time.Now().Add(-10 * time.Second).UnixNano())
				s.replay.active.Store(true)
			}},
		{name: "replay with no progress falls back to build hint", reason: shedNotReady, want: "5",
			setup: func(s *server) {
				s.replay.total.Store(1000)
				s.replay.startNano.Store(time.Now().UnixNano())
				s.replay.active.Store(true)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer(config{})
			if tc.setup != nil {
				tc.setup(s)
			}
			if got := s.retryAfterHint(tc.reason); got != tc.want {
				t.Fatalf("retryAfterHint(%s) = %q, want %q", tc.reason, got, tc.want)
			}
		})
	}
}

// TestShedRetryAfterDerivedFromState asserts the hint travels all the
// way out of the handlers: a query shed while the index builds and a
// starting /readyz both carry the build hint, not "1".
func TestShedRetryAfterDerivedFromState(t *testing.T) {
	s := newServer(config{})
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	for _, path := range []string{"/search?attr=0", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s while building: status %d, want 503", path, resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != "5" {
			t.Fatalf("%s while building: Retry-After %q, want the build hint \"5\"", path, got)
		}
	}
}

// Distributed-mode corpus: every process regenerates the same synthetic
// corpus from the same flags, exactly how a real multi-process
// deployment shares a -corpus file.
const (
	distAttrs   = 40
	distHorizon = 300
	distSeed    = 4
	distShards  = 2
)

func distConfig() config {
	return config{attrs: distAttrs, horizon: distHorizon, seed: distSeed, shards: distShards}
}

// startShardServers boots distShards shard-server tindserves (full
// middleware stack, /shard RPC mounted) and returns their base URLs
// plus the test servers for fault injection.
func startShardServers(t *testing.T) ([]string, []*httptest.Server) {
	t.Helper()
	urls := make([]string, distShards)
	servers := make([]*httptest.Server, distShards)
	for sid := 0; sid < distShards; sid++ {
		cc := distConfig()
		cc.shardServer, cc.shardID = true, sid
		sv, err := loadServing(cc, nil)
		if err != nil {
			t.Fatal(err)
		}
		srv := newServer(config{shardServer: true})
		srv.install(sv)
		ts := httptest.NewServer(srv.routes())
		t.Cleanup(ts.Close)
		urls[sid], servers[sid] = ts.URL, ts
	}
	return urls, servers
}

// startRouter boots a router tindserve over the shard servers at urls
// and returns it with its base URL.
func startRouter(t *testing.T, urls []string) (*server, string) {
	t.Helper()
	rcc := distConfig()
	rcc.router = strings.Join(urls, ";")
	rcc.legTimeout = 5 * time.Second
	rsv, err := loadServing(rcc, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs := newServer(rcc)
	rs.install(rsv)
	rts := httptest.NewServer(rs.routes())
	t.Cleanup(rts.Close)
	return rs, rts.URL
}

// TestShardServerServesOnlyTheShardRPC pins the shard server's route
// table. One shard answers for its own attributes only, so the public
// query endpoints are not mounted there and answer 404 like any unknown
// route, while the shard RPC and the operational endpoints answer.
func TestShardServerServesOnlyTheShardRPC(t *testing.T) {
	urls, _ := startShardServers(t)
	leg := fmt.Sprintf(`{"queries":[{"mode":"forward","attr":0,"params":{"eps":3,"delta":7,"weight":{"n":%d,"c":1}}}]}`, distHorizon)
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/search?attr=0", "", http.StatusNotFound},
		{"GET", "/reverse?attr=0", "", http.StatusNotFound},
		{"GET", "/topk?attr=0", "", http.StatusNotFound},
		{"POST", "/query/batch", `{"queries":[{"attr":"0"}]}`, http.StatusNotFound},
		{"GET", "/shard/info", "", http.StatusOK},
		{"POST", "/shard/batch", leg, http.StatusOK},
		{"GET", "/stats", "", http.StatusOK},
		{"GET", "/readyz", "", http.StatusOK},
	} {
		req, err := http.NewRequest(tc.method, urls[0]+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s on a shard server: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestReadyzDegradedReplies pins the degraded /readyz reply of each
// cause: 503 with Retry-After 2, status "degraded", the reason in
// "error", and exactly the body keys that explain that cause.
func TestReadyzDegradedReplies(t *testing.T) {
	ingestKeys := []string{"error", "max_staleness_ms", "oldest_pending_ms", "pending_records", "status"}
	for _, tc := range []struct {
		name   string
		setup  func(t *testing.T) string // degrades a server, returns its URL
		reason string
		keys   []string
	}{
		{"ingest apply failing", func(t *testing.T) string {
			s, ts, _ := newIngestServer(t, 1, config{}, func(cc *config) {
				cc.snapshot = filepath.Join(t.TempDir(), "missing", "snap")
			})
			c := s.corpus.Load()
			postJSON(t, ts.URL+"/ingest", newHTTPDeltaFeed(c).round([]int{0}), http.StatusOK)
			if err := c.ing.Flush(); err == nil {
				t.Fatal("a snapshot into a missing directory succeeded")
			}
			return ts.URL
		}, "ingest apply failing", ingestKeys},
		{"staleness bound exceeded", func(t *testing.T) string {
			s, ts, _ := newIngestServer(t, 1, config{maxStaleness: time.Millisecond}, nil)
			postJSON(t, ts.URL+"/ingest", newHTTPDeltaFeed(s.corpus.Load()).round([]int{0}), http.StatusOK)
			time.Sleep(5 * time.Millisecond)
			return ts.URL
		}, "staleness bound exceeded", ingestKeys},
		{"shards down", func(t *testing.T) string {
			urls, shardServers := startShardServers(t)
			_, base := startRouter(t, urls)
			shardServers[1].Close()
			return base
		}, "1 of 2 shards unreachable", []string{"error", "shards_down", "status"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(tc.setup(t) + "/readyz")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var body map[string]interface{}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "2" {
				t.Fatalf("status %d, Retry-After %q; want 503 and 2", resp.StatusCode, resp.Header.Get("Retry-After"))
			}
			if msg, _ := body["error"].(string); body["status"] != "degraded" || !strings.Contains(msg, tc.reason) {
				t.Fatalf("body %v: want status degraded and an error naming %q", body, tc.reason)
			}
			var keys []string
			for k := range body {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if !reflect.DeepEqual(keys, tc.keys) {
				t.Fatalf("body keys %v, want %v", keys, tc.keys)
			}
		})
	}
}

// TestDistributedTindserve runs the full three-process topology in one
// test: two shard-server tindserves, a router tindserve over them, and
// a monolithic tindserve as the reference — the same /search, /topk
// and /query/batch requests must answer identically through the router
// and the local engine, and killing a shard must degrade the router to
// explicit 200+partial answers and a degraded /readyz, never a 500 or
// a silently-shrunken result.
func TestDistributedTindserve(t *testing.T) {
	urls, shardServers := startShardServers(t)
	_, routerURL := startRouter(t, urls)

	msv, err := loadServing(distConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ms := newServer(config{})
	ms.install(msv)
	mts := httptest.NewServer(ms.routes())
	defer mts.Close()

	// Differential: the router's HTTP answers match the local engine's
	// bit for bit (ids, ranking, funnel counters are asserted at the
	// Router level in internal/router; here the rendered JSON bodies).
	paths := []string{
		"/search?attr=0", "/search?attr=7&eps=5&delta=3",
		"/reverse?attr=3", fmt.Sprintf("/topk?attr=%d&k=5", distAttrs-1),
	}
	for _, path := range paths {
		want := getJSON(t, mts.URL+path, http.StatusOK)
		got := getJSON(t, routerURL+path, http.StatusOK)
		if fmt.Sprint(got["results"]) != fmt.Sprint(want["results"]) {
			t.Fatalf("%s through the router:\n %v\nwant (local engine)\n %v", path, got["results"], want["results"])
		}
		if got["partial"] != nil {
			t.Fatalf("%s answered partial on a healthy cluster: %v", path, got)
		}
	}
	batchBody := `{"queries":[{"attr":"0"},{"attr":"3","mode":"reverse"},{"attr":"5","mode":"topk","k":3}]}`
	wantB := postJSON(t, mts.URL+"/query/batch", batchBody, http.StatusOK)
	gotB := postJSON(t, routerURL+"/query/batch", batchBody, http.StatusOK)
	wantEntries := wantB["results"].([]interface{})
	gotEntries := gotB["results"].([]interface{})
	if len(gotEntries) != len(wantEntries) {
		t.Fatalf("batch through the router answered %d entries, want %d", len(gotEntries), len(wantEntries))
	}
	for i := range gotEntries {
		// Compare the result sets; wall time and funnel counters
		// legitimately differ between a partitioned and a monolithic
		// engine (the id sets are pinned bit-for-bit in internal/router).
		got := gotEntries[i].(map[string]interface{})["results"]
		want := wantEntries[i].(map[string]interface{})["results"]
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("batch entry %d through the router:\n %v\nwant (local engine)\n %v", i, got, want)
		}
	}

	// Healthy cluster: /readyz ready, /stats names the topology.
	getJSON(t, routerURL+"/readyz", http.StatusOK)
	st := getJSON(t, routerURL+"/stats", http.StatusOK)
	if st["shards"].(float64) != distShards || st["router"] == nil {
		t.Fatalf("router /stats missing topology: %v", st)
	}
	sst := getJSON(t, urls[0]+"/stats", http.StatusOK)
	if sst["shard_id"].(float64) != 0 || sst["owned_attributes"].(float64) <= 0 {
		t.Fatalf("shard-server /stats missing partition identity: %v", sst)
	}

	// Kill shard 1: queries answer 200 with the healthy shards' results
	// and an explicit partial marker naming the dead shard.
	shardServers[1].Close()
	out := getJSON(t, routerURL+"/search?attr=0", http.StatusOK)
	if out["partial"] != true {
		t.Fatalf("query over a dead shard must be marked partial: %v", out)
	}
	if fmt.Sprint(out["shards_failed"]) != "[1]" {
		t.Fatalf("shards_failed = %v, want [1]", out["shards_failed"])
	}
	bout := postJSON(t, routerURL+"/query/batch", batchBody, http.StatusOK)
	if bout["partial"] != true || fmt.Sprint(bout["shards_failed"]) != "[1]" {
		t.Fatalf("batch over a dead shard: partial=%v shards_failed=%v", bout["partial"], bout["shards_failed"])
	}

	// /readyz degrades with the dead shard named, and carries the
	// degradation retry hint.
	resp, err := http.Get(routerURL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router /readyz with a dead shard: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "2" {
		t.Fatalf("degraded /readyz Retry-After %q, want \"2\"", resp.Header.Get("Retry-After"))
	}
}
