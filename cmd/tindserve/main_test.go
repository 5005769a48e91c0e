package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"

	"tind/internal/datagen"
	"tind/internal/index"
)

// testCorpus builds the monolithic serving state the test servers share.
func testCorpus(t testing.TB) *corpus {
	t.Helper()
	c, err := datagen.Generate(datagen.Config{Seed: 4, Attributes: 80, Horizon: 500, AttrsPerDomain: 20})
	if err != nil {
		t.Fatal(err)
	}
	opt := index.DefaultOptions(c.Dataset.Horizon())
	opt.Reverse = true
	idx, err := index.Build(c.Dataset, opt)
	if err != nil {
		t.Fatal(err)
	}
	return newCorpus(c.Dataset, idx)
}

func testServerConfig(t testing.TB, cfg config) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(cfg)
	s.install(testCorpus(t))
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts
}

func testServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	return testServerConfig(t, config{})
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]interface{} {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSearchEndpoint(t *testing.T) {
	_, ts := testServer(t)
	out := getJSON(t, ts.URL+"/search?attr=derived&eps=3&delta=7", http.StatusOK)
	if out["query"] == nil || out["results"] == nil {
		t.Fatalf("response shape: %v", out)
	}
	if out["eps"].(float64) != 3 || out["delta"].(float64) != 7 {
		t.Fatalf("parameters not echoed: %v", out)
	}
}

func TestSearchDefaultsAndReverse(t *testing.T) {
	_, ts := testServer(t)
	out := getJSON(t, ts.URL+"/search?attr=0", http.StatusOK)
	if out["eps"].(float64) != 3 || out["delta"].(float64) != 7 {
		t.Fatalf("paper defaults expected: %v", out)
	}
	// A shift far beyond the horizon is legal (it used to panic the
	// validation cursor once δ passed 2^30).
	getJSON(t, ts.URL+"/search?attr=0&delta=1100000000", http.StatusOK)
	rout := getJSON(t, ts.URL+"/reverse?attr="+url.QueryEscape("List of D0"), http.StatusOK)
	if rout["results"] == nil {
		t.Fatal("reverse results missing")
	}
	// A reference list should contain at least one attribute.
	if len(rout["results"].([]interface{})) == 0 {
		t.Fatal("reverse search from a reference must find subsets")
	}
}

func TestTopKEndpoint(t *testing.T) {
	_, ts := testServer(t)
	out := getJSON(t, ts.URL+"/topk?attr=derived&k=3", http.StatusOK)
	results := out["results"].([]interface{})
	if len(results) != 3 {
		t.Fatalf("topk returned %d results", len(results))
	}
	prev := -1.0
	for _, r := range results {
		v := r.(map[string]interface{})["violation"].(float64)
		if v < prev {
			t.Fatal("topk results not sorted by violation")
		}
		prev = v
	}
}

func TestAttrEndpoint(t *testing.T) {
	_, ts := testServer(t)
	out := getJSON(t, ts.URL+"/attr?attr=0", http.StatusOK)
	if out["versions"] == nil || out["observed_from"] == nil {
		t.Fatalf("attr response shape: %v", out)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	out := getJSON(t, ts.URL+"/stats", http.StatusOK)
	if out["attributes"].(float64) != 80 {
		t.Fatalf("stats: %v", out)
	}
}

func TestHealthzLatencyQuantiles(t *testing.T) {
	_, ts := testServer(t)
	// The aggregate latency histogram is process-global, so after one
	// query the quantile block must be present and ordered.
	getJSON(t, ts.URL+"/search?attr=0", http.StatusOK)
	out := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if out["status"] != "ok" {
		t.Fatalf("healthz: %v", out)
	}
	if out["queries_served"].(float64) < 1 {
		t.Fatalf("queries_served missing: %v", out)
	}
	lat, ok := out["query_latency_ms"].(map[string]interface{})
	if !ok {
		t.Fatalf("query_latency_ms missing: %v", out)
	}
	p50, p95, p99 := lat["p50"].(float64), lat["p95"].(float64), lat["p99"].(float64)
	if p50 < 0 || p50 > p95 || p95 > p99 {
		t.Fatalf("quantiles out of order: p50=%g p95=%g p99=%g", p50, p95, p99)
	}
}

func TestErrorResponses(t *testing.T) {
	_, ts := testServer(t)
	cases := []string{
		"/search",                   // missing attr
		"/search?attr=no-such-page", // unresolvable
		"/search?attr=0&eps=-1",     // bad eps
		"/search?attr=0&delta=x",    // bad delta
		"/search?attr=99999",        // out of range
		"/topk?attr=0&k=0",          // bad k
		"/topk?attr=0&k=abc",        // bad k
	}
	for _, path := range cases {
		out := getJSON(t, ts.URL+path, http.StatusBadRequest)
		if code, _ := errEnvelope(t, out); code != "invalid_parameter" {
			t.Errorf("%s: code %q, want invalid_parameter", path, code)
		}
	}
}

// TestValidateModes pins the mode rules main checks before binding the
// port. loadServing must refuse the same configurations with the same
// message before it touches the corpus — the -corpus path here does not
// exist, so a load that read first would fail on the file instead.
func TestValidateModes(t *testing.T) {
	for _, tc := range []struct {
		name string
		cc   config
		want string // substring of the error; "" = accepted
	}{
		{"monolith", config{shards: 1}, ""},
		{"monolith with wal", config{shards: 1, wal: "w.log"}, ""},
		{"sharded with wal", config{shards: 4, wal: "w.log"}, ""},
		{"shard-id ignored without shard-server", config{shards: 1, shardID: 7}, ""},
		{"shard server", config{shards: 2, shardServer: true, shardID: 1}, ""},
		{"router", config{shards: 1, router: "http://a;http://b"}, ""},
		{"shard server and router", config{shards: 2, shardServer: true, router: "http://a"}, "mutually exclusive"},
		{"shard server with wal", config{shards: 2, shardServer: true, wal: "w.log"}, "read-only"},
		{"router with wal", config{shards: 1, router: "http://a", wal: "w.log"}, "read-only"},
		{"shard-id negative", config{shards: 2, shardServer: true, shardID: -1}, "-shard-id -1 out of range [0,2)"},
		{"shard-id equals shards", config{shards: 2, shardServer: true, shardID: 2}, "-shard-id 2 out of range [0,2)"},
		{"shard server without shards", config{shards: 0, shardServer: true}, "-shard-id 0 out of range [0,0)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cc.validateModes()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("validateModes error %v, want it to contain %q", err, tc.want)
			}
			tc.cc.corpus = filepath.Join(t.TempDir(), "missing.tind")
			if _, lerr := loadServing(tc.cc, nil); lerr == nil || lerr.Error() != err.Error() {
				t.Fatalf("loadServing error %v, want %v", lerr, err)
			}
		})
	}
}
