package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tind/internal/core"
	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/ingest"
	"tind/internal/oracle"
	"tind/internal/timeline"
	"tind/internal/wal"
)

// newIngestServer assembles a live-ingestion server through the real
// loadServing path (synthetic corpus, WAL, snapshot file) and wires
// it into the HTTP surface. mut tweaks the corpus config before loading.
func newIngestServer(t testing.TB, shards int, cfg config, mut func(cc *config)) (*server, *httptest.Server, config) {
	t.Helper()
	dir := t.TempDir()
	cc := config{
		attrs: 40, horizon: 120, seed: 4, shards: shards,
		wal:           filepath.Join(dir, "ingest.wal"),
		snapshot:      filepath.Join(dir, "snap"),
		snapshotEvery: 1,
		// Applies only on demand (Flush) unless a test lowers these.
		maxDirty:    1 << 30,
		maxDirtyAge: time.Hour,
	}
	if mut != nil {
		mut(&cc)
	}
	sv, err := loadServing(cc, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(cfg)
	s.install(sv)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(func() {
		ts.Close()
		s.closeServing()
	})
	return s, ts, cc
}

// httpDeltaFeed builds valid /ingest request bodies against a
// client-side shadow of the dataset state — exactly what an external
// ingest client tracks.
type httpDeltaFeed struct {
	horizon int
	ends    map[int]int
	rounds  int
}

func newHTTPDeltaFeed(c *corpus) *httpDeltaFeed {
	f := &httpDeltaFeed{ends: make(map[int]int)}
	c.view(func(ds *history.Dataset) {
		f.horizon = int(ds.Horizon())
		for i := 0; i < ds.Len(); i++ {
			f.ends[i] = int(ds.Attr(history.AttrID(i)).ObservedUntil())
		}
	})
	return f
}

// round returns one valid batch body: a horizon extension plus an append
// per given attribute, and advances the shadow state.
func (f *httpDeltaFeed) round(attrs []int) string {
	f.rounds++
	f.horizon += 2
	deltas := []string{fmt.Sprintf(`{"op":"extend_horizon","horizon":%d}`, f.horizon)}
	for _, a := range attrs {
		deltas = append(deltas, fmt.Sprintf(
			`{"op":"append","attr":%d,"start":%d,"end":%d,"values":["live-%d-%d"]}`,
			a, f.ends[a], f.horizon, f.rounds, a))
		f.ends[a] = f.horizon
	}
	return `{"deltas":[` + strings.Join(deltas, ",") + `]}`
}

func postJSON(t *testing.T, url, body string, wantStatus int) map[string]interface{} {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	json.NewDecoder(resp.Body).Decode(&out)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d (%v)", url, resp.StatusCode, wantStatus, out)
	}
	return out
}

func TestIngestEndpointDurableAck(t *testing.T) {
	s, ts, cc := newIngestServer(t, 1, config{}, nil)
	c := s.corpus.Load()
	feed := newHTTPDeltaFeed(c)

	out := postJSON(t, ts.URL+"/ingest", feed.round([]int{0, 1, 2}), http.StatusOK)
	if out["durable"] != true {
		t.Fatalf("acknowledged batch not durable: %v", out)
	}
	if out["accepted"].(float64) != 4 || out["pending_records"].(float64) != 4 {
		t.Fatalf("accepted/pending shape: %v", out)
	}
	// Durable means on disk before the 200: the WAL file holds the batch.
	fi, err := os.Stat(cc.wal)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() <= int64(wal.HeaderSize) {
		t.Fatalf("WAL still empty (%d bytes) after acknowledged batch", fi.Size())
	}
	sizeAfterAck := fi.Size()

	// Rejected batches: nothing may reach the WAL.
	for name, body := range map[string]string{
		"append beyond horizon": `{"deltas":[{"op":"append","attr":0,"start":0,"end":99999,"values":["x"]}]}`,
		"unknown op":            `{"deltas":[{"op":"rename","attr":0}]}`,
		"empty batch":           `{"deltas":[]}`,
		"garbage body":          `{"deltas": nope`,
		"unknown field":         `{"unexpected": 1}`,
	} {
		out := postJSON(t, ts.URL+"/ingest", body, http.StatusBadRequest)
		if code, _ := errEnvelope(t, out); code != "rejected" && code != "invalid_parameter" {
			t.Fatalf("%s: rejection code %q, want rejected or invalid_parameter: %v", name, code, out)
		}
	}
	if fi, err := os.Stat(cc.wal); err != nil || fi.Size() != sizeAfterAck {
		t.Fatalf("rejected batches changed the WAL: %d bytes, want %d (err %v)", fi.Size(), sizeAfterAck, err)
	}

	// /stats surfaces the staleness gauges while records pend.
	st := getJSON(t, ts.URL+"/stats", http.StatusOK)
	ing, ok := st["ingest"].(map[string]interface{})
	if !ok {
		t.Fatalf("/stats missing ingest section: %v", st)
	}
	if ing["pending_records"].(float64) != 4 || ing["wal_lag_bytes"].(float64) <= 0 {
		t.Fatalf("ingest stats before apply: %v", ing)
	}
	if ing["oldest_pending_ms"].(float64) <= 0 {
		t.Fatalf("oldest_pending_ms must be positive with records pending: %v", ing)
	}

	// After a flush the pending state drains and queries see the deltas.
	if err := c.ing.Flush(); err != nil {
		t.Fatal(err)
	}
	st = getJSON(t, ts.URL+"/stats", http.StatusOK)
	ing = st["ingest"].(map[string]interface{})
	if ing["pending_records"].(float64) != 0 || ing["applied_records"].(float64) != 4 {
		t.Fatalf("ingest stats after flush: %v", ing)
	}
	if int(st["horizon_days"].(float64)) != feed.horizon {
		t.Fatalf("horizon %v after apply, want %d", st["horizon_days"], feed.horizon)
	}
	getJSON(t, ts.URL+"/search?attr=0", http.StatusOK)
}

// TestIngestRepublishesIndexGauges: live ingestion republishes the index
// state gauges after each refresh, so a scrape reports the served
// engine's state as of the last apply without reading the index.
func TestIngestRepublishesIndexGauges(t *testing.T) {
	const mtFill = `tind_index_bloom_fill_ratio{matrix="m_t"}`
	for _, shards := range []int{1, 4} {
		s, ts, _ := newIngestServer(t, shards, config{}, nil)
		c := s.corpus.Load()
		before := scrapeGauges(t, http.DefaultClient, ts.URL)(mtFill)
		feed := newHTTPDeltaFeed(c)
		postJSON(t, ts.URL+"/ingest", feed.round([]int{0, 1, 2, 3, 4, 5, 6, 7}), http.StatusOK)
		if err := c.ing.Flush(); err != nil {
			t.Fatal(err)
		}
		want := c.idx.Stats()
		gauge := scrapeGauges(t, http.DefaultClient, ts.URL)
		if got := gauge(mtFill); got != want.MTFillRatio || got <= before {
			t.Errorf("-shards %d: m_t fill gauge %g after the apply (%g before), engine reads %g",
				shards, got, before, want.MTFillRatio)
		}
		if got := gauge("tind_index_bytes"); got != float64(want.MemoryBytes) {
			t.Errorf("-shards %d: tind_index_bytes = %g, engine reads %d", shards, got, want.MemoryBytes)
		}
	}
}

func TestIngestDisabledWithoutWAL(t *testing.T) {
	_, ts := testServer(t)
	out := postJSON(t, ts.URL+"/ingest", `{"deltas":[{"op":"extend_horizon","horizon":600}]}`, http.StatusNotImplemented)
	code, msg := errEnvelope(t, out)
	if code != "not_implemented" || !strings.Contains(msg, "-wal") {
		t.Fatalf("501 envelope (%q, %q) must point at the -wal flag: %v", code, msg, out)
	}
}

func TestReadyzDegradedWhenStalenessBoundExceeded(t *testing.T) {
	s, ts, _ := newIngestServer(t, 1, config{maxStaleness: time.Millisecond}, nil)
	getJSON(t, ts.URL+"/readyz", http.StatusOK)

	c := s.corpus.Load()
	feed := newHTTPDeltaFeed(c)
	postJSON(t, ts.URL+"/ingest", feed.round([]int{0, 1}), http.StatusOK)
	time.Sleep(5 * time.Millisecond)

	out := getJSON(t, ts.URL+"/readyz", http.StatusServiceUnavailable)
	if out["status"] != "degraded" || out["pending_records"].(float64) <= 0 {
		t.Fatalf("degraded readyz shape: %v", out)
	}
	if err := c.ing.Flush(); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts.URL+"/readyz", http.StatusOK)
}

// TestIngestQueryHammerHTTP extends the refresh-vs-query race hammer to
// the HTTP surface: concurrent POST /ingest traffic against live
// forward/reverse/top-k queries, on both the monolith and the sharded
// engine, with the background loop applying aggressively. Run with
// -race this pins the whole lock chain (handler view → ingester →
// engine refresh).
func TestIngestQueryHammerHTTP(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"monolith", 1},
		{"sharded", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts, _ := newIngestServer(t, tc.shards, config{}, func(cc *config) {
				cc.maxDirty = 4
				cc.maxDirtyAge = 2 * time.Millisecond
			})
			c := s.corpus.Load()
			feed := newHTTPDeltaFeed(c)

			const rounds = 12
			stop := make(chan struct{})
			var wg sync.WaitGroup
			// Goroutines report through t.Error: t.Fatal must not be called
			// off the test goroutine.
			do := func(method, url, body string) error {
				var resp *http.Response
				var err error
				if method == http.MethodPost {
					resp, err = http.Post(url, "application/json", strings.NewReader(body))
				} else {
					resp, err = http.Get(url)
				}
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				var out map[string]interface{}
				json.NewDecoder(resp.Body).Decode(&out)
				if resp.StatusCode != http.StatusOK {
					return fmt.Errorf("%s %s: status %d (%v)", method, url, resp.StatusCode, out)
				}
				return nil
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(stop)
				for r := 0; r < rounds; r++ {
					attrs := []int{(3 * r) % 10, (3*r + 1) % 10, (3*r + 2) % 10}
					if err := do(http.MethodPost, ts.URL+"/ingest", feed.round(attrs)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			paths := []string{"/search?attr=%d", "/reverse?attr=%d", "/topk?attr=%d&k=5"}
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if err := do(http.MethodGet, ts.URL+fmt.Sprintf(paths[(i+w)%len(paths)], (i*7+w)%40), ""); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			// Drain and check the books balance: every acknowledged record
			// either applied already or applies on this flush.
			if err := c.ing.Flush(); err != nil {
				t.Fatal(err)
			}
			st := getJSON(t, ts.URL+"/stats", http.StatusOK)
			ing := st["ingest"].(map[string]interface{})
			if ing["pending_records"].(float64) != 0 {
				t.Fatalf("records still pending after flush: %v", ing)
			}
			if ing["applied_records"].(float64) != ing["submitted_records"].(float64) {
				t.Fatalf("applied %v != submitted %v", ing["applied_records"], ing["submitted_records"])
			}
			if int(st["horizon_days"].(float64)) != feed.horizon {
				t.Fatalf("horizon %v after hammer, want %d", st["horizon_days"], feed.horizon)
			}
			getJSON(t, ts.URL+"/readyz", http.StatusOK)
		})
	}
}

// TestServeCrashRecoveryParity is the kill-mid-ingest contract at the
// serving layer: a victim server acknowledges deltas (some applied and
// snapshotted, some only WAL-durable), "crashes" with a torn frame on
// the WAL tail, and a restart through the real loadServing path —
// snapshot, suffix replay with progress, engine rebuild — must answer
// every query mode exactly like a from-scratch rebuild of the same
// deltas, pinned to the exact oracle.
func TestServeCrashRecoveryParity(t *testing.T) {
	victim, ts, cc := newIngestServer(t, 3, config{}, func(cc *config) {
		cc.attrs, cc.horizon, cc.seed = 24, 90, 11
	})
	c := victim.corpus.Load()
	feed := newHTTPDeltaFeed(c)

	// Applied + snapshotted prefix (snapshotEvery=1 snapshots each apply).
	for r := 0; r < 3; r++ {
		postJSON(t, ts.URL+"/ingest", feed.round([]int{r, r + 5, r + 9}), http.StatusOK)
	}
	if err := c.ing.Flush(); err != nil {
		t.Fatal(err)
	}
	// Durable-but-unapplied suffix: acknowledged, never applied.
	for r := 0; r < 3; r++ {
		postJSON(t, ts.URL+"/ingest", feed.round([]int{r + 2, r + 12}), http.StatusOK)
	}
	ts.Close()
	// Crash: a torn frame on the tail, as a kill -9 mid-append leaves it.
	f, err := os.OpenFile(cc.wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x21, 0, 0, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Restart through the real startup path, watching replay progress.
	var rp replayProgress
	sv, err := loadServing(cc, &rp)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sv.ing.Close()
		sv.wal.Close()
	}()
	if rp.total.Load() == 0 || rp.done.Load() != rp.total.Load() {
		t.Fatalf("replay progress %d/%d: the unapplied suffix must replay", rp.done.Load(), rp.total.Load())
	}

	// Truth: regenerate the corpus and replay the whole WAL from zero.
	gen, err := datagen.Generate(datagen.Config{
		Seed: cc.seed, Attributes: cc.attrs, Horizon: timeline.Time(cc.horizon),
	})
	if err != nil {
		t.Fatal(err)
	}
	truth := gen.Dataset
	log, err := wal.Open(cc.wal, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ingest.Replay(truth, log, 0, nil); err != nil {
		t.Fatal(err)
	}
	log.Close()
	opt := index.DefaultOptions(truth.Horizon())
	opt.Reverse = true
	opt.Seed = cc.seed
	rebuilt, err := index.Build(truth, opt)
	if err != nil {
		t.Fatal(err)
	}

	if sv.ds.Horizon() != truth.Horizon() {
		t.Fatalf("recovered horizon %d, rebuilt %d", sv.ds.Horizon(), truth.Horizon())
	}
	p := core.DefaultDays(truth.Horizon())
	ctx := context.Background()
	// The serving engine answers a lone query as a batch of one.
	query := func(q *history.History, o index.QueryOptions) (index.Result, error) {
		rs, err := sv.idx.QueryBatch(ctx, []index.BatchQuery{{Query: q, Options: o}}, index.BatchOptions{})
		if err != nil {
			return index.Result{}, err
		}
		return rs[0], nil
	}
	for i := 0; i < truth.Len(); i++ {
		q := sv.ds.Attr(history.AttrID(i))
		qt := truth.Attr(history.AttrID(i))
		for _, mode := range []index.Mode{index.ModeForward, index.ModeReverse} {
			a, err := query(q, index.QueryOptions{Mode: mode, Params: p})
			if err != nil {
				t.Fatal(err)
			}
			b, err := rebuilt.Query(ctx, qt, index.QueryOptions{Mode: mode, Params: p})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(a.IDs) != fmt.Sprint(b.IDs) {
				t.Fatalf("q=%d %v: recovered %v, rebuilt %v", i, mode, a.IDs, b.IDs)
			}
			var want []history.AttrID
			if mode == index.ModeForward {
				want = oracle.ForwardSet(truth, qt, p)
			} else {
				want = oracle.ReverseSet(truth, qt, p)
			}
			if fmt.Sprint(a.IDs) != fmt.Sprint(want) {
				t.Fatalf("q=%d %v: recovered %v, oracle %v", i, mode, a.IDs, want)
			}
		}
		a, err := query(q, index.QueryOptions{Mode: index.ModeTopK, K: 5, Params: p})
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.TopK(truth, qt, p, 5)
		if len(a.Ranked) != len(want) {
			t.Fatalf("q=%d topk: %d ranked, oracle %d", i, len(a.Ranked), len(want))
		}
		for j := range want {
			if a.Ranked[j].ID != want[j].ID {
				t.Fatalf("q=%d topk[%d]: %d, oracle %d", i, j, a.Ranked[j].ID, want[j].ID)
			}
		}
	}
}
