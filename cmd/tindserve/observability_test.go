package main

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/obs"
	"tind/internal/shard"
	"tind/internal/timeline"
	"tind/internal/values"
)

// sampleLine matches one Prometheus text-format sample:
// name{optional labels} value.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (.+)$`)

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	// Exercise the query path so the phase histograms have samples. The
	// registry diff across the two requests is checked below — other
	// tests share the process registry, so absolute values are unusable.
	before := obs.Default().Snapshot()
	getJSON(t, ts.URL+"/search?attr=0&eps=3&delta=7", http.StatusOK)
	getJSON(t, ts.URL+"/topk?attr=0&k=3", http.StatusOK)
	d := obs.Default().Snapshot().Diff(before)

	if v := d.Value("tind_queries_total", obs.L("mode", "forward")); v != 1 {
		t.Errorf("forward queries delta = %g, want 1", v)
	}
	if v := d.Value("tind_http_requests_total",
		obs.L("endpoint", "/search"), obs.L("code", "200")); v != 1 {
		t.Errorf("/search 200s delta = %g, want 1", v)
	}
	if c := d.Count("tind_http_query_seconds"); c != 2 {
		t.Errorf("aggregate query latency samples delta = %d, want 2", c)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// Every non-comment line must parse as a sample with a float value.
	samples := 0
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample line: %q", line)
		}
		if _, err := strconv.ParseFloat(m[2], 64); err != nil {
			t.Fatalf("sample %q: bad value: %v", line, err)
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("exposition contains no samples")
	}

	for _, want := range []string{
		"tind_index_bloom_fill_ratio{matrix=\"m_t\"}",
		"tind_query_phase_seconds_bucket",
		"tind_query_phase_seconds_bucket{mode=\"forward\",phase=\"validate\",le=\"+Inf\"}",
		"tind_queries_total{mode=\"forward\"}",
		"tind_http_requests_total{endpoint=\"/search\",code=\"200\"}",
		"tind_http_request_seconds_bucket",
		"tind_http_query_seconds_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The fill-ratio gauge of the required-values matrix must carry a
	// real value: the test corpus is non-empty, so some bits are set.
	snap := obs.Default().Snapshot()
	if v := snap.Value("tind_index_bloom_fill_ratio", obs.L("matrix", "m_t")); v <= 0 || v > 1 {
		t.Fatalf("m_t fill ratio %g out of (0,1]", v)
	}
}

// TestIndexGaugesDescribeServedEngine boots a monolith and a -shards 4
// server and scrapes each: tind_index_attributes is |D| and
// tind_index_bytes the served engine's MemoryBytes — on the sharded
// server the sum over its shards, not the last shard build's figure —
// and /stats reports the same bytes next to each matrix's width.
func TestIndexGaugesDescribeServedEngine(t *testing.T) {
	for _, shards := range []int{1, 4} {
		cc := config{attrs: 300, horizon: 400, seed: 5, shards: shards}
		c, err := loadServing(cc, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes := c.idx.Stats().MemoryBytes
		if sx, ok := c.idx.(*shard.ShardedIndex); ok {
			var sum int64
			for i := range sx.NumShards() {
				sum += sx.Shard(i).Stats().MemoryBytes
			}
			if sum != wantBytes || sx.NumShards() != shards {
				t.Fatalf("%d shards: aggregate %d bytes, shards sum to %d", sx.NumShards(), wantBytes, sum)
			}
		} else if shards > 1 {
			t.Fatalf("-shards %d served a %T", shards, c.idx)
		}
		s := newServer(cc)
		s.install(c)
		ts := httptest.NewServer(s.routes())
		gauge := scrapeGauges(t, http.DefaultClient, ts.URL)
		if got := gauge("tind_index_attributes"); got != float64(c.ds.Len()) {
			t.Errorf("-shards %d: tind_index_attributes = %g, want |D| = %d", shards, got, c.ds.Len())
		}
		if got := gauge("tind_index_bytes"); got != float64(wantBytes) {
			t.Errorf("-shards %d: tind_index_bytes = %g, want %d", shards, got, wantBytes)
		}
		st := getJSON(t, ts.URL+"/stats", http.StatusOK)
		bits, _ := st["index_bits"].(map[string]interface{})
		widths, _ := bits["slices"].([]interface{})
		if st["index_bytes"].(float64) != float64(wantBytes) || bits["m_t"] != float64(4096) ||
			len(widths) != int(st["index_slices"].(float64)) {
			t.Errorf("-shards %d: /stats index_bytes %v, index_bits %v, index_slices %v",
				shards, st["index_bytes"], bits, st["index_slices"])
		}
		ts.Close()
	}
}

// scrapeGauges reads url's /metrics through client and returns a lookup
// of unlabelled samples by name.
func scrapeGauges(t *testing.T, client *http.Client, url string) func(name string) float64 {
	t.Helper()
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return func(name string) float64 {
		t.Helper()
		for _, line := range strings.Split(string(body), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
		}
		t.Fatalf("no %s sample on %s/metrics", name, url)
		return 0
	}
}

// TestRouterMetricsWithShardDown: a router publishes the cluster's index
// state once, at install, so a scrape touches no shard. With one shard
// server gone, /metrics still answers at once and reports the whole
// cluster's attributes and bytes, not the reachable shards' share.
func TestRouterMetricsWithShardDown(t *testing.T) {
	urls, servers := startShardServers(t)
	rs, rurl := startRouter(t, urls)
	want := rs.corpus.Load().idx.Stats()
	if want.Attributes != distAttrs || want.MemoryBytes <= 0 {
		t.Fatalf("router aggregate before the fault: %d attributes, %d bytes", want.Attributes, want.MemoryBytes)
	}
	servers[1].Close()
	start := time.Now()
	gauge := scrapeGauges(t, &http.Client{Timeout: 2 * time.Second}, rurl)
	if d := time.Since(start); d > time.Second {
		t.Errorf("scrape with a shard down took %v", d)
	}
	if got := gauge("tind_index_attributes"); got != distAttrs {
		t.Errorf("tind_index_attributes = %g, want %d", got, distAttrs)
	}
	if got := gauge("tind_index_bytes"); got != float64(want.MemoryBytes) {
		t.Errorf("tind_index_bytes = %g, want %d", got, want.MemoryBytes)
	}
}

func TestMetricsServedWhileNotReady(t *testing.T) {
	// Corpus never installed: query endpoints shed, but scrapes must not.
	s := newServer(config{})
	w := httptest.NewRecorder()
	s.routes().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics while not ready: status %d", w.Code)
	}
}

func TestPprofGating(t *testing.T) {
	_, off := testServerConfig(t, config{})
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without -pprof: status %d, want 404", resp.StatusCode)
	}

	_, on := testServerConfig(t, config{pprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with -pprof: status %d, want 200", resp.StatusCode)
	}
}

// miniCorpus builds a one-attribute dataset whose only page title is the
// given string, plus its index.
func miniCorpus(t *testing.T, page string) *corpus {
	t.Helper()
	ds := history.NewDataset(timeline.Time(100))
	dict := ds.Dict()
	vals := values.Set{dict.Intern("x"), dict.Intern("y")}
	h, err := history.New(history.Meta{Page: page, Table: "t", Column: "c"},
		[]history.Version{{Start: 0, Values: vals}}, timeline.Time(100))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Add(h); err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(ds, index.DefaultOptions(ds.Horizon()))
	if err != nil {
		t.Fatal(err)
	}
	return newCorpus(ds, idx)
}

// TestResolveCacheFollowsCorpusSwap guards the regression where the
// lowercased-page cache used by resolve outlived a corpus swap: after a
// second install, resolve must see only the new corpus's pages.
func TestResolveCacheFollowsCorpusSwap(t *testing.T) {
	s := newServer(config{})
	s.install(miniCorpus(t, "Alpha Page"))

	c := s.corpus.Load()
	if _, err := c.resolve("alpha"); err != nil {
		t.Fatalf("resolve on first corpus: %v", err)
	}
	if _, err := c.resolve("beta"); err == nil {
		t.Fatal("resolved a page absent from the first corpus")
	}

	s.install(miniCorpus(t, "Beta Page"))
	c = s.corpus.Load()
	h, err := c.resolve("beta")
	if err != nil {
		t.Fatalf("resolve after swap: %v", err)
	}
	if h.Meta().Page != "Beta Page" {
		t.Fatalf("resolved %q, want the swapped-in page", h.Meta().Page)
	}
	if _, err := c.resolve("alpha"); err == nil {
		t.Fatal("stale page cache: resolved a page from the replaced corpus")
	}
}
