package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"tind/internal/datagen"
	"tind/internal/index"
	"tind/internal/obs"
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
	Validated  int                `json:"validated"`
	Results    int                `json:"results"`
	Phases     map[string]float64 `json:"phases_ms"`
	Shards     []struct {
		Shard      int                `json:"shard"`
		ElapsedMs  float64            `json:"elapsed_ms"`
		Phases     map[string]float64 `json:"phases_ms"`
		Candidates int                `json:"candidates"`
		Validated  int                `json:"validated"`
		Results    int                `json:"results"`
		Error      *string            `json:"error"` // nil when absent
	} `json:"shards"`
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

// runForEvent sends one query request — a GET, or a POST of body when it
// is non-empty — asserts its status and returns the wide event carrying
// its X-Query-ID. The middleware records the event before it returns, and the
// response only ends once it has, so a read body means a recorded event.
func runForEvent(t *testing.T, base, target, body string, wantStatus int) eventJSON {
	t.Helper()
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = http.Get(base + target)
	} else {
		resp, err = http.Post(base+target, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s: status %d, want %d", target, resp.StatusCode, wantStatus)
	}
	return eventOf(t, base, target, resp)
}

// eventOf returns the wide event of the answered request to target: the
// one carrying the response's X-Query-ID.
func eventOf(t *testing.T, base, target string, resp *http.Response) eventJSON {
	t.Helper()
	qid, err := strconv.ParseUint(resp.Header.Get("X-Query-ID"), 10, 64)
	if err != nil {
		t.Fatalf("%s: bad X-Query-ID %q: %v", target, resp.Header.Get("X-Query-ID"), err)
	}
	endpoint, _, _ := strings.Cut(target, "?")
	// Newest first: query IDs restart per server, so the first match is
	// this server's.
	for _, e := range getEvents(t, base, "?limit=1000") {
		if e.QueryID == qid && e.Endpoint == endpoint {
			return e
		}
	}
	t.Fatalf("%s: no event with query_id %d", target, qid)
	return eventJSON{}
}

// TestBatchWideEvent guards the regression where POST /query/batch
// bypassed the query middleware contract: handleBatch never noted its
// stats, so a batch left no phase breakdown behind. The batch must
// record one wide event carrying the aggregate stats — also when it
// fails.
func TestBatchWideEvent(t *testing.T) {
	body := `{"queries": [
		{"attr": "0", "eps": 3, "delta": 7},
		{"attr": "1", "mode": "reverse", "eps": 3}
	]}`
	// post runs the batch and returns its wide event.
	post := func(cfg config, wantStatus int) eventJSON {
		t.Helper()
		_, ts := testServerConfig(t, cfg)
		e := runForEvent(t, ts.URL, "/query/batch", body, wantStatus)
		if e.Kind != "batch" || e.Status != wantStatus || e.BatchSize != 2 {
			t.Errorf("event kind=%q status=%d batch_size=%d, want batch, %d and 2", e.Kind, e.Status, e.BatchSize, wantStatus)
		}
		return e
	}

	ev := post(config{}, http.StatusOK)
	for _, phase := range []string{"mt_prune", "validate"} {
		if _, ok := ev.Phases[phase]; !ok {
			t.Errorf("batch event phases %v missing %q", ev.Phases, phase)
		}
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
	ev := runForEvent(t, ts.URL, "/search?attr=0&eps=3&delta=7", "", http.StatusOK)
	if ev.Kind != "query" || ev.Mode != "forward" {
		t.Errorf("event kind=%q mode=%q, want query and forward", ev.Kind, ev.Mode)
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

// TestSLOObjectivesCountWhatTheyJudge checks the instruments an operator
// computes service-level ratios from on /metrics, as registry diffs
// around a known traffic mix: the 5xx ratio from
// tind_http_requests_total{code}, the latency ratio from
// tind_http_query_seconds, ingest staleness from
// tind_ingest_oldest_pending_seconds, and shard availability from
// tind_router_legs_total{status}.
func TestSLOObjectivesCountWhatTheyJudge(t *testing.T) {
	t.Run("http_error_ratio", func(t *testing.T) {
		const shed, served = 3, 5
		s := newServer(config{})
		ts := httptest.NewServer(s.routes())
		defer ts.Close()
		before := obs.Default().Snapshot()
		for i := 0; i < shed; i++ {
			getJSON(t, ts.URL+"/search?attr=0", http.StatusServiceUnavailable)
		}
		s.install(testCorpus(t))
		for i := 0; i < served; i++ {
			getJSON(t, ts.URL+"/search?attr=0", http.StatusOK)
		}
		d := obs.Default().Snapshot().Diff(before)
		for code, want := range map[string]float64{"503": shed, "200": served} {
			if v := d.Value("tind_http_requests_total", obs.L("endpoint", "/search"), obs.L("code", code)); v != want {
				t.Errorf("tind_http_requests_total{endpoint=/search,code=%s} grew by %g, want %g", code, v, want)
			}
		}
		// Shed requests never reach the latency histogram.
		if c := d.Count("tind_http_query_seconds"); c != served {
			t.Errorf("tind_http_query_seconds count grew by %d, want %d", c, served)
		}
	})

	t.Run("ingest_staleness", func(t *testing.T) {
		const bound = time.Millisecond
		s, ts, _ := newIngestServer(t, 1, config{maxStaleness: bound}, nil)
		postJSON(t, ts.URL+"/ingest", newHTTPDeltaFeed(s.corpus.Load()).round([]int{0}), http.StatusOK)
		time.Sleep(5 * bound)
		getJSON(t, ts.URL+"/readyz", http.StatusServiceUnavailable)
		if v := obs.Default().Snapshot().Value("tind_ingest_oldest_pending_seconds"); v <= bound.Seconds() {
			t.Errorf("tind_ingest_oldest_pending_seconds = %g with an unapplied delta past the %v bound", v, bound)
		}
	})

	t.Run("router_shard_availability", func(t *testing.T) {
		urls, shardServers := startShardServers(t)
		_, base := startRouter(t, urls)
		shardServers[1].Close()
		before := obs.Default().Snapshot()
		if out := getJSON(t, base+"/search?attr=0", http.StatusOK); out["partial"] != true {
			t.Fatalf("query over a closed shard not partial: %v", out)
		}
		d := obs.Default().Snapshot().Diff(before)
		if v := d.Value("tind_router_legs_total", obs.L("status", "error")); v < 1 {
			t.Errorf("tind_router_legs_total{status=error} grew by %g over a partial answer, want >= 1", v)
		}
	})
}

// scrapeMetrics GETs /metrics with the given Accept header (none when
// empty), asserts the 200 and the Prometheus 0.0.4 content type, and
// returns the exposition.
func scrapeMetrics(t *testing.T, base, accept string) string {
	t.Helper()
	req, _ := http.NewRequest("GET", base+"/metrics", nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics (Accept %q): status %d", accept, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics (Accept %q): content type %q, want the 0.0.4 text format", accept, ct)
	}
	return string(body)
}

// TestOpenMetricsNegotiation: /metrics speaks one dialect. A scraper that
// prefers OpenMetrics (Prometheus's default Accept header) still gets a
// 200 in the 0.0.4 text format it also accepts — no OpenMetrics
// terminator, no exemplar clauses.
func TestOpenMetricsNegotiation(t *testing.T) {
	_, ts := testServer(t)
	getJSON(t, ts.URL+"/search?attr=0", http.StatusOK)

	text := scrapeMetrics(t, ts.URL, "application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5")
	if !strings.Contains(text, `tind_http_query_seconds_bucket`) {
		t.Fatal("missing tind_http_query_seconds buckets")
	}
	// No "# EOF" terminator, and every sample is `name{labels} value` with
	// no exemplar clause after the value.
	for _, line := range strings.Split(text, "\n") {
		if line == "# EOF" {
			t.Fatal("exposition ends with the OpenMetrics terminator")
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample line: %q", line)
		}
		if _, err := strconv.ParseFloat(m[2], 64); err != nil {
			t.Fatalf("sample %q: value is not a lone float: %v", line, err)
		}
	}
}

// queryBuckets scrapes /metrics and returns the upper bounds and
// cumulative counts of tind_http_query_seconds, in exposition order.
func queryBuckets(t *testing.T, base string) (les []string, counts []float64) {
	t.Helper()
	for _, line := range strings.Split(scrapeMetrics(t, base, ""), "\n") {
		rest, ok := strings.CutPrefix(line, `tind_http_query_seconds_bucket{le="`)
		if !ok {
			continue
		}
		le, v, _ := strings.Cut(rest, `"} `)
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		les, counts = append(les, le), append(counts, n)
	}
	if len(les) == 0 {
		t.Fatal("no tind_http_query_seconds buckets on /metrics")
	}
	return les, counts
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
// attribution names the straggler, (2) be found from the latency
// histogram bucket it landed in, through /debug/events filtered at that
// bucket's lower bound.
func TestEndToEndTraceability(t *testing.T) {
	const straggler = 2
	delay := 30 * time.Millisecond
	_, base, faults := testShardedServer(t, config{}, 4)

	faults[straggler].SetDelay(delay)
	_, before := queryBuckets(t, base)

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

	// (2) The spike, two hops: the latency bucket the batch landed in on
	// /metrics, then /debug/events above that bucket's lower bound holds
	// this very query ID. The batch is the only query between the scrapes.
	les, after := queryBuckets(t, base)
	bucket := -1
	for i := range after {
		grew := after[i] - before[i]
		if i > 0 {
			grew -= after[i-1] - before[i-1] // cumulative → this bucket alone
		}
		if grew > 0 {
			if bucket >= 0 {
				t.Fatalf("more than one latency bucket grew across the batch: %v -> %v", before, after)
			}
			bucket = i
		}
	}
	if bucket < 0 {
		t.Fatalf("no tind_http_query_seconds bucket grew across the batch: %v -> %v", before, after)
	}
	lower := "0"
	if bucket > 0 {
		lower = les[bucket-1]
	}
	found := false
	for _, e := range getEvents(t, base, "?kind=batch&min_duration="+lower+"s") {
		found = found || e.QueryID == qid
	}
	if !found {
		t.Errorf("bucket le=%q: /debug/events?min_duration=%ss holds no event with query_id %d", les[bucket], lower, qid)
	}

}

// mixedBatch is a forward, a reverse and a top-k entry in one batch.
const mixedBatch = `{"queries": [
	{"attr": "0", "eps": 3, "delta": 7},
	{"attr": "1", "mode": "reverse", "eps": 3},
	{"attr": "2", "mode": "topk", "k": 5}
]}`

// TestBatchEventShardsSumToTotals: a sharded batch's per-shard rows
// attribute the whole batch — each shard's row folds that leg's work over
// every entry — so they add up to the event's funnel.
func TestBatchEventShardsSumToTotals(t *testing.T) {
	_, base, _ := testShardedServer(t, config{}, 4)
	ev := runForEvent(t, base, "/query/batch", mixedBatch, http.StatusOK)
	if len(ev.Shards) != 4 {
		t.Fatalf("event shard attribution has %d legs, want 4", len(ev.Shards))
	}
	var cand, validated, results int
	for _, sh := range ev.Shards {
		cand += sh.Candidates
		validated += sh.Validated
		results += sh.Results
	}
	if cand != ev.Candidates || validated != ev.Validated || results != ev.Results {
		t.Errorf("shards[] sum to %d candidates, %d validated, %d results; the event has %d, %d, %d",
			cand, validated, results, ev.Candidates, ev.Validated, ev.Results)
	}
}

// TestPartialEventNamesFailedLeg: a partial answer's wide event names the
// leg that failed. With leg 1 down, a search, a top-k and a batch each
// answer 200 with the partial marker, and their events' shards[1] carries
// the leg's error while no other row has one — without it the dead leg's
// row reads like a fast leg that found nothing.
func TestPartialEventNamesFailedLeg(t *testing.T) {
	_, base, faults := testShardedServer(t, config{}, 4)
	faults[1].SetError(fmt.Errorf("shard 1: %w: connection refused", shard.ErrLegUnavailable))
	for _, req := range []struct{ target, body string }{
		{"/search?attr=0", ""},
		{"/topk?attr=2&k=5", ""},
		{"/query/batch", `{"queries": [{"attr": "0", "eps": 3}, {"attr": "2", "mode": "topk", "k": 5}]}`},
	} {
		var resp *http.Response
		var err error
		if req.body == "" {
			resp, err = http.Get(base + req.target)
		} else {
			resp, err = http.Post(base+req.target, "application/json", strings.NewReader(req.body))
		}
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Partial      bool  `json:"partial"`
			ShardsFailed []int `json:"shards_failed"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !out.Partial || !slices.Equal(out.ShardsFailed, []int{1}) {
			t.Fatalf("%s: status %d, partial %v, shards_failed %v (%v); want 200 partial on shard 1",
				req.target, resp.StatusCode, out.Partial, out.ShardsFailed, err)
		}
		ev := eventOf(t, base, req.target, resp)
		if len(ev.Shards) != 4 {
			t.Fatalf("%s: event shard attribution has %d legs, want 4", req.target, len(ev.Shards))
		}
		for _, sh := range ev.Shards {
			switch failed := sh.Shard == 1; {
			case failed && (sh.Error == nil || *sh.Error == ""):
				t.Errorf("%s: the failed leg's row carries no error: %+v", req.target, sh)
			case !failed && sh.Error != nil:
				t.Errorf("%s: healthy shard %d's row carries error %q", req.target, sh.Shard, *sh.Error)
			}
		}
	}
}

// TestEventPhasesAddUp pins what an event's phases_ms add up to. A phase
// is busy time: a lone monolith query runs its phases one after another,
// so they fit inside its duration; on shards the top level sums every
// leg's phases (and every batch entry's), which run in parallel, so it
// equals the sum of shards[].phases_ms and only each leg's own phases fit
// inside that leg's elapsed time.
func TestEventPhasesAddUp(t *testing.T) {
	sum := func(phases map[string]float64) float64 {
		var s float64
		for _, v := range phases {
			s += v
		}
		return s
	}
	queries := []string{"/search?attr=0&eps=3&delta=7", "/reverse?attr=1&eps=3", "/topk?attr=2&k=5"}

	t.Run("monolith", func(t *testing.T) {
		_, ts := testServer(t)
		for _, q := range queries {
			ev := runForEvent(t, ts.URL, q, "", http.StatusOK)
			if len(ev.Phases) == 0 {
				t.Errorf("%s: event carries no phase breakdown", q)
			}
			if s := sum(ev.Phases); s > ev.DurationMs {
				t.Errorf("%s: phases_ms sum to %.6fms, above duration_ms %.6fms", q, s, ev.DurationMs)
			}
		}
	})

	t.Run("shards", func(t *testing.T) {
		_, base, _ := testShardedServer(t, config{}, 4)
		for _, q := range append(queries, "/query/batch") {
			body := ""
			if q == "/query/batch" {
				body = mixedBatch
			}
			ev := runForEvent(t, base, q, body, http.StatusOK)
			if len(ev.Shards) != 4 {
				t.Fatalf("%s: event shard attribution has %d legs, want 4", q, len(ev.Shards))
			}
			for _, phase := range []string{"mt_prune", "slice_prune", "subset_check", "validate", "rank"} {
				var legs float64
				for _, sh := range ev.Shards {
					legs += sh.Phases[phase]
				}
				if math.Abs(legs-ev.Phases[phase]) > 1e-6 {
					t.Errorf("%s: %s is %.6fms at the top level, %.6fms summed over shards[]", q, phase, ev.Phases[phase], legs)
				}
			}
			if body != "" {
				continue
			}
			for _, sh := range ev.Shards {
				if s := sum(sh.Phases); s > sh.ElapsedMs {
					t.Errorf("%s: shard %d phases_ms sum to %.6fms, above its elapsed_ms %.6fms", q, sh.Shard, s, sh.ElapsedMs)
				}
			}
		}
	})
}
