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

	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/obs"
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
