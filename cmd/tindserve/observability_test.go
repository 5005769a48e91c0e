package main

import (
	"bufio"
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/obs"
	"tind/internal/timeline"
	"tind/internal/values"
)

// logCapture is a goroutine-safe sink for the server's slog output.
type logCapture struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *logCapture) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

func (c *logCapture) lines() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := strings.TrimSpace(c.buf.String())
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// captureLog points the server's structured log at a buffer.
func captureLog(s *server) *logCapture {
	c := &logCapture{}
	s.log = slog.New(slog.NewTextHandler(c, nil))
	return c
}

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

func TestSlowQueryLog(t *testing.T) {
	// Threshold of 1ns: every query is slow, so one request must produce
	// one log line carrying the per-phase breakdown.
	s, ts := testServerConfig(t, config{slowQuery: time.Nanosecond})
	cap := captureLog(s)

	resp, err := http.Get(ts.URL + "/search?attr=0&eps=3&delta=7")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	qid := resp.Header.Get("X-Query-ID")
	if qid == "" {
		t.Fatal("response missing X-Query-ID header")
	}

	lines := cap.lines()
	if len(lines) != 1 {
		t.Fatalf("slow-query log lines: %d, want 1: %q", len(lines), lines)
	}
	line := lines[0]
	for _, want := range []string{
		`msg="slow query"`, "qid=" + qid, "method=GET", "/search",
		"status=200", "p95_ms=", "p99_ms=",
		"phases[", "mt_prune=", "validate=", "trace[",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-query line missing %q: %s", want, line)
		}
	}
}

func TestSlowQueryLogDisabled(t *testing.T) {
	s, ts := testServerConfig(t, config{}) // threshold 0 = disabled
	cap := captureLog(s)
	getJSON(t, ts.URL+"/search?attr=0", http.StatusOK)
	if lines := cap.lines(); len(lines) != 0 {
		t.Fatalf("disabled slow-query log still logged: %q", lines)
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
