package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"tind/internal/datagen"
	"tind/internal/index"
	"tind/internal/obs"
	"tind/internal/router"
	"tind/internal/shard"
)

// eventJSON mirrors the /debug/events rendering of one wide event.
type eventJSON struct {
	Seq        uint64             `json:"seq"`
	Kind       string             `json:"kind"`
	QueryID    uint64             `json:"query_id"`
	Mode       string             `json:"mode"`
	Endpoint   string             `json:"endpoint"`
	Status     int                `json:"status"`
	BatchSize  int                `json:"batch_size"`
	DurationMs float64            `json:"duration_ms"`
	ErrorClass string             `json:"error_class"`
	Candidates int                `json:"candidates"`
	Results    int                `json:"results"`
	Phases     map[string]float64 `json:"phases_ms"`
	Shards     []struct {
		Shard      int     `json:"shard"`
		ElapsedMs  float64 `json:"elapsed_ms"`
		Candidates int     `json:"candidates"`
	} `json:"shards"`
	Trace []struct {
		Name string `json:"name"`
	} `json:"trace"`
}

// getEvents fetches /debug/events with the given query string and
// decodes the response.
func getEvents(t *testing.T, base, query string) []eventJSON {
	t.Helper()
	resp, err := http.Get(base + "/debug/events" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/events%s: status %d", query, resp.StatusCode)
	}
	var out struct {
		Count  int         `json:"count"`
		Events []eventJSON `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding /debug/events: %v", err)
	}
	if out.Count != len(out.Events) {
		t.Fatalf("count %d != len(events) %d", out.Count, len(out.Events))
	}
	return out.Events
}

// TestBatchWideEvent guards the regression where POST /query/batch
// bypassed the query middleware contract: handleBatch never noted its
// stats, so a batch left no phase breakdown or trace behind. The batch
// must record one wide event carrying the aggregate stats and the
// per-entry traces — also when it fails.
func TestBatchWideEvent(t *testing.T) {
	body := `{"queries": [
		{"attr": "0", "eps": 3, "delta": 7},
		{"attr": "1", "mode": "reverse", "eps": 3}
	]}`
	// post runs the batch and returns its wide event (the ring is
	// process-wide and newest first; query IDs restart per server).
	post := func(cfg config, wantStatus int) eventJSON {
		t.Helper()
		_, ts := testServerConfig(t, cfg)
		resp, err := http.Post(ts.URL+"/query/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
		}
		qid, err := strconv.ParseUint(resp.Header.Get("X-Query-ID"), 10, 64)
		if err != nil {
			t.Fatalf("bad X-Query-ID %q: %v", resp.Header.Get("X-Query-ID"), err)
		}
		for _, e := range getEvents(t, ts.URL, "?kind=batch") {
			if e.QueryID == qid && e.Endpoint == "/query/batch" {
				if e.Status != wantStatus || e.BatchSize != 2 {
					t.Errorf("event status=%d batch_size=%d, want %d and 2", e.Status, e.BatchSize, wantStatus)
				}
				return e
			}
		}
		t.Fatalf("no batch event with query_id %d", qid)
		return eventJSON{}
	}

	ev := post(config{}, http.StatusOK)
	for _, phase := range []string{"mt_prune", "validate"} {
		if _, ok := ev.Phases[phase]; !ok {
			t.Errorf("batch event phases %v missing %q", ev.Phases, phase)
		}
	}
	// Fresh server: the tail sampler is in warmup and keeps every trace;
	// both entries contribute their spans.
	var probes int
	for _, sp := range ev.Trace {
		if sp.Name == "mt_prune" {
			probes++
		}
	}
	if probes != 2 {
		t.Errorf("batch event trace has %d mt_prune spans, want one per entry: %+v", probes, ev.Trace)
	}

	// The error path: a batch that times out still reaches the ring.
	ev = post(config{queryTimeout: time.Nanosecond}, http.StatusGatewayTimeout)
	if ev.ErrorClass != "deadline_exceeded" {
		t.Errorf("timed-out batch event error_class = %q, want deadline_exceeded", ev.ErrorClass)
	}
}

// TestQueryWideEvent checks that a single query records one wide event,
// retrievable through /debug/events with the query ID the client saw in
// X-Query-ID.
func TestQueryWideEvent(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/search?attr=0&eps=3&delta=7")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	qid, err := strconv.ParseUint(resp.Header.Get("X-Query-ID"), 10, 64)
	if err != nil {
		t.Fatalf("bad X-Query-ID %q: %v", resp.Header.Get("X-Query-ID"), err)
	}

	var ev *eventJSON
	for _, e := range getEvents(t, ts.URL, "?kind=query&mode=forward") {
		if e.QueryID == qid && e.Endpoint == "/search" {
			ev = &e
			break
		}
	}
	if ev == nil {
		t.Fatalf("no query event with query_id %d", qid)
	}
	if ev.Status != http.StatusOK || ev.ErrorClass != "" {
		t.Errorf("event status=%d error_class=%q, want 200 and empty", ev.Status, ev.ErrorClass)
	}
	if ev.DurationMs <= 0 {
		t.Errorf("event duration_ms = %g, want > 0", ev.DurationMs)
	}
	if len(ev.Phases) == 0 {
		t.Error("event carries no phase breakdown")
	}
	// Fresh server: the tail sampler is in warmup and keeps every trace.
	if len(ev.Trace) == 0 {
		t.Error("event trace dropped during sampler warmup")
	}
}

// TestDebugEventsParams exercises the /debug/events filter surface:
// malformed parameters answer 400, the duration filter excludes fast
// events.
func TestDebugEventsParams(t *testing.T) {
	_, ts := testServer(t)
	getJSON(t, ts.URL+"/search?attr=0", http.StatusOK)

	for _, bad := range []string{
		"?min_duration=fast", "?error=perhaps", "?limit=0", "?limit=1000000", "?limit=x",
	} {
		resp, err := http.Get(ts.URL + "/debug/events" + bad)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /debug/events%s: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// No query in this process takes ten minutes.
	if evs := getEvents(t, ts.URL, "?min_duration=10m"); len(evs) != 0 {
		t.Errorf("min_duration=10m returned %d events, want 0", len(evs))
	}
	if evs := getEvents(t, ts.URL, "?kind=query&limit=1"); len(evs) > 1 {
		t.Errorf("limit=1 returned %d events", len(evs))
	}
}

// TestSLOEndpoint checks that /slo serves every declared objective as
// valid JSON with its burn-rate windows.
func TestSLOEndpoint(t *testing.T) {
	s, ts := testServerConfig(t, config{sloLatency: 500 * time.Millisecond})
	s.slo.Tick() // baseline
	getJSON(t, ts.URL+"/search?attr=0", http.StatusOK)
	s.slo.Tick()

	resp, err := http.Get(ts.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /slo: status %d", resp.StatusCode)
	}
	var out struct {
		Healthy    bool `json:"healthy"`
		Objectives []struct {
			Name    string  `json:"name"`
			Target  float64 `json:"target"`
			Windows []struct {
				Window   string  `json:"window"`
				BurnRate float64 `json:"burn_rate"`
			} `json:"windows"`
		} `json:"objectives"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding /slo: %v", err)
	}
	names := map[string]bool{}
	for _, o := range out.Objectives {
		names[o.Name] = true
		if len(o.Windows) != 2 {
			t.Errorf("objective %s: %d windows, want 2", o.Name, len(o.Windows))
		}
		if o.Target <= 0 || o.Target >= 1 {
			t.Errorf("objective %s: target %g out of (0,1)", o.Name, o.Target)
		}
	}
	for _, want := range []string{"query_latency", "http_error_ratio", "ingest_staleness"} {
		if !names[want] {
			t.Errorf("/slo missing objective %q (got %v)", want, names)
		}
	}
}

// TestSLOObjectivesCountWhatTheyJudge ticks the engine around a known
// traffic mix and checks the bad and total events each objective counted
// in between.
func TestSLOObjectivesCountWhatTheyJudge(t *testing.T) {
	window := func(t *testing.T, s *server, name string) obs.SLOWindow {
		t.Helper()
		for _, st := range s.slo.Status() {
			if st.Name == name {
				return st.Windows[0]
			}
		}
		t.Fatalf("no objective %q", name)
		return obs.SLOWindow{}
	}

	t.Run("http_error_ratio", func(t *testing.T) {
		const shed, served = 3, 5
		s := newServer(config{})
		ts := httptest.NewServer(s.routes())
		defer ts.Close()
		s.slo.Tick()
		for i := 0; i < shed; i++ {
			getJSON(t, ts.URL+"/search?attr=0", http.StatusServiceUnavailable)
		}
		s.install(testCorpus(t))
		for i := 0; i < served; i++ {
			getJSON(t, ts.URL+"/search?attr=0", http.StatusOK)
		}
		s.slo.Tick()
		if w := window(t, s, "http_error_ratio"); w.BadDelta != shed || w.TotalDelta != shed+served {
			t.Errorf("http_error_ratio counted %g bad of %g, want %d of %d", w.BadDelta, w.TotalDelta, shed, shed+served)
		}
		// Shed requests never reach the latency histogram; with a zero
		// threshold every admitted query is slow.
		if w := window(t, s, "query_latency"); w.BadDelta != served || w.TotalDelta != served {
			t.Errorf("query_latency counted %g bad of %g, want %d of %d", w.BadDelta, w.TotalDelta, served, served)
		}
	})

	t.Run("ingest_staleness", func(t *testing.T) {
		s, ts, _ := newIngestServer(t, 1, config{maxStaleness: time.Millisecond}, nil)
		s.slo.Tick() // nothing pending: a good tick
		postJSON(t, ts.URL+"/ingest", newHTTPDeltaFeed(s.corpus.Load()).round([]int{0}), http.StatusOK)
		time.Sleep(5 * time.Millisecond)
		s.slo.Tick()
		if w := window(t, s, "ingest_staleness"); w.BadDelta != 1 || w.TotalDelta != 1 {
			t.Errorf("ingest_staleness counted %g bad of %g, want 1 of 1", w.BadDelta, w.TotalDelta)
		}
	})

	t.Run("router_shard_availability", func(t *testing.T) {
		urls, shardServers := startShardServers(t)
		rs, base := startRouter(t, urls)
		shardServers[1].Close()
		ok0, failed0 := router.LegOutcomes()
		rs.slo.Tick()
		if out := getJSON(t, base+"/search?attr=0", http.StatusOK); out["partial"] != true {
			t.Fatalf("query over a closed shard not partial: %v", out)
		}
		rs.slo.Tick()
		ok1, failed1 := router.LegOutcomes()
		w := window(t, rs, "router_shard_availability")
		if w.BadDelta != float64(failed1-failed0) || w.BadDelta < 1 {
			t.Errorf("router_shard_availability counted %g bad, want the %d failed legs (at least 1)", w.BadDelta, failed1-failed0)
		}
		if legs := (ok1 + failed1) - (ok0 + failed0); w.TotalDelta != float64(legs) {
			t.Errorf("router_shard_availability counted %g legs, want %d", w.TotalDelta, legs)
		}
	})
}

// TestOpenMetricsNegotiation checks the Accept-driven switch between the
// Prometheus 0.0.4 text format and OpenMetrics on /metrics.
func TestOpenMetricsNegotiation(t *testing.T) {
	_, ts := testServer(t)
	getJSON(t, ts.URL+"/search?attr=0", http.StatusOK)

	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("content type %q, want openmetrics", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.HasSuffix(strings.TrimRight(text, "\n"), "# EOF") {
		t.Error("OpenMetrics exposition does not end with # EOF")
	}
	// The query above left an exemplar on the aggregate latency histogram.
	if !strings.Contains(text, `tind_http_query_seconds_bucket`) {
		t.Fatal("missing tind_http_query_seconds buckets")
	}
	if !strings.Contains(text, `query_id="`) {
		t.Error("OpenMetrics exposition carries no query_id exemplar")
	}
}

// testShardedServer builds a server over a scatter-gather index with the
// fault decorator installed on every leg, so shard fault injection is
// reachable from HTTP tests.
func testShardedServer(t *testing.T, cfg config, shards int) (*server, string, []*shard.FaultLeg) {
	t.Helper()
	c, err := datagen.Generate(datagen.Config{Seed: 4, Attributes: 80, Horizon: 500, AttrsPerDomain: 20})
	if err != nil {
		t.Fatal(err)
	}
	opt := index.DefaultOptions(c.Dataset.Horizon())
	opt.Reverse = true
	sx, err := shard.Build(c.Dataset, shard.Options{
		Shards: shards, Seed: 4, Index: shard.PartitionOptions(opt, shards),
	})
	if err != nil {
		t.Fatal(err)
	}
	faults := shard.InjectFaults(sx.Coordinator)
	s := newServer(cfg)
	s.install(newCorpus(c.Dataset, sx))
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts.URL, faults
}

// TestEndToEndTraceability is the acceptance walk of the observability
// stack: under an injected 30ms delay on one shard, a batched query must
// (1) appear in /debug/events as a batch event whose per-shard
// attribution names the straggler, (2) leave an exemplar with its query
// ID on the latency histogram in the OpenMetrics exposition, and
// (3) move the query_latency burn-rate gauge on the next SLO tick.
func TestEndToEndTraceability(t *testing.T) {
	const straggler = 2
	delay := 30 * time.Millisecond
	s, base, faults := testShardedServer(t, config{sloLatency: time.Millisecond}, 4)
	s.slo.Tick() // burn-rate baseline: deltas start at this sample

	faults[straggler].SetDelay(delay)

	body := `{"queries": [
		{"attr": "0", "eps": 3, "delta": 7},
		{"attr": "1", "mode": "reverse", "eps": 3}
	]}`
	resp, err := http.Post(base+"/query/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	qid, err := strconv.ParseUint(resp.Header.Get("X-Query-ID"), 10, 64)
	if err != nil {
		t.Fatalf("bad X-Query-ID: %v", err)
	}

	// (1) The wide event: a batch slower than 10ms with the straggling
	// shard visibly slowest and at least as slow as the injected delay.
	var ev *eventJSON
	for _, e := range getEvents(t, base, "?kind=batch&min_duration=10ms") {
		if e.QueryID == qid {
			ev = &e
			break
		}
	}
	if ev == nil {
		t.Fatalf("no batch event with query_id %d above 10ms", qid)
	}
	if ev.BatchSize != 2 || ev.Endpoint != "/query/batch" {
		t.Errorf("event batch_size=%d endpoint=%q", ev.BatchSize, ev.Endpoint)
	}
	if len(ev.Shards) != 4 {
		t.Fatalf("event shard attribution has %d legs, want 4", len(ev.Shards))
	}
	slowest := ev.Shards[0]
	for _, sh := range ev.Shards[1:] {
		if sh.ElapsedMs > slowest.ElapsedMs {
			slowest = sh
		}
	}
	if slowest.Shard != straggler {
		t.Errorf("slowest leg is shard %d, want injected straggler %d (%+v)", slowest.Shard, straggler, ev.Shards)
	}
	if min := float64(delay) / float64(time.Millisecond); slowest.ElapsedMs < min {
		t.Errorf("straggler leg %.2fms, want >= %.0fms", slowest.ElapsedMs, min)
	}

	// (2) The exemplar: the OpenMetrics exposition links some latency
	// bucket to exactly this query ID.
	req, _ := http.NewRequest("GET", base+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	mresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	mbody, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	marker := fmt.Sprintf(`# {query_id="%d"}`, qid)
	found := false
	for _, line := range strings.Split(string(mbody), "\n") {
		if strings.HasPrefix(line, "tind_http_query_seconds_bucket") && strings.Contains(line, marker) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no tind_http_query_seconds bucket carries exemplar %s", marker)
	}

	// (3) The burn rate: one query above the 1ms objective threshold
	// burns budget in every window on the next tick.
	s.slo.Tick()
	snap := obs.Default().Snapshot()
	for _, window := range []string{"5m", "1h"} {
		v := snap.Value("tind_slo_burn_rate", obs.L("slo", "query_latency"), obs.L("window", window))
		if v <= 0 {
			t.Errorf("tind_slo_burn_rate{slo=query_latency,window=%s} = %g, want > 0", window, v)
		}
	}
}

// TestReadyzSLOBurnDegrade checks the opt-in coupling of the SLO engine
// to readiness: with -slo-burn-degrade set, a sustained budget burn in
// every window flips /readyz to 503 degraded.
func TestReadyzSLOBurnDegrade(t *testing.T) {
	s, ts := testServerConfig(t, config{sloLatency: time.Nanosecond, sloBurnDegrade: 1})
	getJSON(t, ts.URL+"/readyz", http.StatusOK) // healthy before any burn history

	s.slo.Tick() // baseline
	for i := 0; i < 12; i++ {
		getJSON(t, ts.URL+"/search?attr=0", http.StatusOK)
	}
	s.slo.Tick()
	if reason := s.slo.Degraded(); reason == "" {
		t.Fatal("SLO engine not degraded after 12 budget-burning queries")
	}
	out := getJSON(t, ts.URL+"/readyz", http.StatusServiceUnavailable)
	if out["status"] != "degraded" {
		t.Fatalf("readyz body: %v", out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "query_latency") {
		t.Errorf("degraded reason %q does not name the burning objective", msg)
	}
}
