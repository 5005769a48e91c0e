package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// handoffWriter is a reply as a closed-loop client sees it on the worst
// schedule the network allows: the moment the handler starts writing, the
// caller may send its next request, and the write does not return before
// that next request has been answered. Whatever the handler still holds
// while it writes, it holds across its caller's next admission.
type handoffWriter struct {
	header  http.Header
	status  int
	once    sync.Once
	started chan struct{}   // closed when the reply begins
	next    <-chan struct{} // closed once the caller's next reply has begun
}

func (w *handoffWriter) Header() http.Header  { return w.header }
func (w *handoffWriter) WriteHeader(code int) { w.begin(code) }
func (w *handoffWriter) Write(b []byte) (int, error) {
	w.begin(http.StatusOK)
	return len(b), nil
}

func (w *handoffWriter) begin(code int) {
	w.once.Do(func() {
		w.status = code
		close(w.started)
		<-w.next
	})
}

// TestClosedLoopCallersAtExactCapacityAreNeverShed is the capacity drill
// of benchmark/README.md ("Admission release races the reply"): two
// closed-loop callers of weight-4 requests against -max-in-flight 8 are
// exact capacity, so the limiter must never see a caller's next request
// while it still charges the one whose reply that caller has already read.
// With the weight released only after the reply was flushed, every
// follow-up request here found its predecessor's weight still held and was
// shed.
func TestClosedLoopCallersAtExactCapacityAreNeverShed(t *testing.T) {
	const callers, requests = 2, 500
	s, _ := testServerConfig(t, config{maxInFlight: callers * batchWeight})
	handler := s.routes()
	body := `{"queries":[{"attr":"0"},{"attr":"1","mode":"reverse"},{"attr":"2"},{"attr":"3","mode":"topk","k":3}]}`

	var handlers, loops sync.WaitGroup
	shed := make([]int, callers)
	for c := 0; c < callers; c++ {
		loops.Add(1)
		go func(c int) {
			defer loops.Done()
			var prev chan struct{}
			for i := 0; i < requests; i++ {
				next := make(chan struct{})
				w := &handoffWriter{header: http.Header{}, started: make(chan struct{}), next: next}
				handlers.Add(1)
				go func() {
					defer handlers.Done()
					handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query/batch", strings.NewReader(body)))
				}()
				<-w.started
				if w.status == http.StatusServiceUnavailable {
					shed[c]++
				} else if w.status != http.StatusOK {
					t.Errorf("caller %d request %d: status %d", c, i, w.status)
				}
				if prev != nil {
					close(prev)
				}
				prev = next
			}
			close(prev)
		}(c)
	}
	loops.Wait()
	handlers.Wait()
	for c, n := range shed {
		if n != 0 {
			t.Errorf("caller %d: %d of %d requests shed at exact capacity, want 0", c, n, requests)
		}
	}
	if held := s.limiter.InUse(); held != 0 {
		t.Fatalf("limiter still holds %d after every request finished", held)
	}
}

// TestBatchIsChargedByItsEntries pins the admission rule of the one-RPC
// wire: a batch — a /shard/batch leg or a public /query/batch — is charged
// min(batchWeight, entries), not by its route. Against capacity 4, a
// one-entry leg fits beside three weight-1 requests and not beside four; a
// 32-entry leg fits an idle server and not one with a single request in
// flight. A shed leg answers the saturated envelope the router retries on.
func TestBatchIsChargedByItsEntries(t *testing.T) {
	cc := distConfig()
	cc.shardServer, cc.maxInFlight = true, batchWeight
	sv, err := loadServing(cc, nil)
	if err != nil {
		t.Fatal(err)
	}
	shardSrv := newServer(cc)
	shardSrv.install(sv)
	shardTS := httptest.NewServer(shardSrv.routes())
	defer shardTS.Close()
	publicSrv, publicTS := testServerConfig(t, config{maxInFlight: batchWeight})

	legEntry := fmt.Sprintf(`{"mode":"forward","attr":0,"params":{"eps":3,"delta":7,"weight":{"n":%d,"c":1}}}`, distHorizon)
	bodyOf := func(entry string, n int) string {
		return `{"queries":[` + strings.Repeat(entry+",", n-1) + entry + `]}`
	}
	for _, surface := range []struct {
		name  string
		s     *server
		url   string
		entry string
	}{
		{"leg", shardSrv, shardTS.URL + "/shard/batch", legEntry},
		{"public batch", publicSrv, publicTS.URL + "/query/batch", `{"attr":"0"}`},
	} {
		for _, tc := range []struct {
			entries int
			held    int64 // weight of the requests already in flight
			status  int
		}{
			{1, 3, http.StatusOK},
			{1, 4, http.StatusServiceUnavailable},
			{32, 0, http.StatusOK},
			{32, 1, http.StatusServiceUnavailable},
		} {
			t.Run(fmt.Sprintf("%s of %d beside %d", surface.name, tc.entries, tc.held), func(t *testing.T) {
				if !surface.s.limiter.TryAcquire(tc.held) {
					t.Fatal("limiter not idle between cases")
				}
				defer surface.s.limiter.Release(tc.held)
				resp, err := http.Post(surface.url, "application/json", strings.NewReader(bodyOf(surface.entry, tc.entries)))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != tc.status {
					t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
				}
				if tc.status == http.StatusOK {
					return
				}
				var out map[string]interface{}
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Fatal(err)
				}
				if code, _ := errEnvelope(t, out); code != "saturated" || resp.Header.Get("Retry-After") != "1" {
					t.Fatalf("shed batch answered code %q, Retry-After %q; want saturated and 1", code, resp.Header.Get("Retry-After"))
				}
				if held := surface.s.limiter.InUse(); held != tc.held {
					t.Fatalf("a shed batch left %d held, want the %d of the requests in flight", held, tc.held)
				}
			})
		}
	}
}
