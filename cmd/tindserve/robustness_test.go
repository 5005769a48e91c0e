package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/index"
)

func TestHealthzBeforeAndAfterReady(t *testing.T) {
	s := newServer(config{})
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	// Liveness answers immediately; readiness and queries shed until the
	// corpus is installed.
	getJSON(t, ts.URL+"/healthz", http.StatusOK)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before install: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("/readyz 503 must carry Retry-After")
	}
	out := getJSON(t, ts.URL+"/search?attr=0", http.StatusServiceUnavailable)
	if code, _ := errEnvelope(t, out); code != "not_ready" {
		t.Fatalf("not-ready query: code %q, want not_ready", code)
	}

	c, err := datagen.Generate(datagen.Config{Seed: 4, Attributes: 40, Horizon: 300, AttrsPerDomain: 20})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(c.Dataset, index.DefaultOptions(c.Dataset.Horizon()))
	if err != nil {
		t.Fatal(err)
	}
	s.install(newCorpus(c.Dataset, idx))
	getJSON(t, ts.URL+"/readyz", http.StatusOK)
	getJSON(t, ts.URL+"/search?attr=0", http.StatusOK)
}

func TestPanicRecoveryReturnsJSON500(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	ts := httptest.NewServer(recoverJSON(mux))
	defer ts.Close()

	out := getJSON(t, ts.URL+"/boom", http.StatusInternalServerError)
	code, msg := errEnvelope(t, out)
	if code != "internal" || !strings.Contains(msg, "kaboom") {
		t.Fatalf("panic envelope (%q, %q) must be internal/kaboom: %v", code, msg, out)
	}
	// The server must survive the panic and keep answering.
	getJSON(t, ts.URL+"/boom", http.StatusInternalServerError)
}

func TestLoadSheddingWhenSaturated(t *testing.T) {
	s, _ := testServerConfig(t, config{maxInFlight: 1})

	release := make(chan struct{})
	entered := make(chan struct{})
	blocked := s.query(1, func(c *corpus, w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.WriteHeader(http.StatusOK)
	})
	probe := s.query(1, func(c *corpus, w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := httptest.NewRecorder()
		blocked.ServeHTTP(rec, httptest.NewRequest("GET", "/search?attr=0", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("in-flight request: status %d", rec.Code)
		}
	}()
	<-entered

	// Capacity 1 is in use: the next request must shed, not queue.
	rec := httptest.NewRecorder()
	probe.ServeHTTP(rec, httptest.NewRequest("GET", "/search?attr=0", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated server: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed response must carry Retry-After")
	}

	close(release)
	wg.Wait()

	// Weight released: requests are admitted again.
	rec = httptest.NewRecorder()
	probe.ServeHTTP(rec, httptest.NewRequest("GET", "/search?attr=0", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("after release: status %d, want 200", rec.Code)
	}
}

func TestQueryDeadlineExpiry(t *testing.T) {
	// A 1ns deadline is already expired when the query starts; the
	// handler must answer 504 with the typed deadline error, not hang.
	_, ts := testServerConfig(t, config{queryTimeout: time.Nanosecond})
	for _, path := range []string{"/search?attr=0", "/reverse?attr=0", "/topk?attr=0&k=3"} {
		out := getJSON(t, ts.URL+path, http.StatusGatewayTimeout)
		code, msg := errEnvelope(t, out)
		if code != "deadline_exceeded" || !strings.Contains(msg, "deadline") {
			t.Fatalf("%s: deadline envelope (%q, %q): %v", path, code, msg, out)
		}
	}
}

// buildSmallCorpus builds a small ready-made corpus for run() lifecycle
// tests.
func buildSmallCorpus(t *testing.T) (*history.Dataset, *index.Index) {
	t.Helper()
	c, err := datagen.Generate(datagen.Config{Seed: 7, Attributes: 30, Horizon: 200, AttrsPerDomain: 15})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := index.Build(c.Dataset, index.DefaultOptions(c.Dataset.Horizon()))
	if err != nil {
		t.Fatal(err)
	}
	return c.Dataset, idx
}

func TestRunDrainsInFlightRequestsOnShutdown(t *testing.T) {
	ds, idx := buildSmallCorpus(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, config{drainTimeout: 5 * time.Second}, ln,
			func(*replayProgress) (*corpus, error) { return newCorpus(ds, idx), nil })
	}()

	base := "http://" + ln.Addr().String()
	waitReady(t, base)

	// Put a request in flight, then trigger shutdown while it runs. The
	// drain must let it complete with a full response.
	inFlight := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/search?attr=0")
		if err != nil {
			inFlight <- err
			return
		}
		defer resp.Body.Close()
		if _, err := io.ReadAll(resp.Body); err != nil {
			inFlight <- err
			return
		}
		if resp.StatusCode != http.StatusOK {
			inFlight <- errors.New(resp.Status)
			return
		}
		inFlight <- nil
	}()
	// Give the request a moment to hit the server before draining.
	time.Sleep(20 * time.Millisecond)
	cancel()

	if err := <-inFlight; err != nil {
		t.Fatalf("in-flight request during drain: %v", err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after drain")
	}

	// The listener is closed: new connections must be refused.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after drain")
	}
}

func TestRunShutsDownOnSIGTERM(t *testing.T) {
	ds, idx := buildSmallCorpus(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Same wiring as main: a signal context translates SIGTERM into the
	// drain path.
	ctx, stop := signalNotifyContext(t)
	defer stop()
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, config{drainTimeout: 5 * time.Second}, ln,
			func(*replayProgress) (*corpus, error) { return newCorpus(ds, idx), nil })
	}()
	waitReady(t, "http://"+ln.Addr().String())

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SIGTERM did not drain the server")
	}
}

func TestRunFailsWhenCorpusLoadFails(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	loadErr := errors.New("corrupt corpus")
	err = run(context.Background(), config{drainTimeout: time.Second}, ln,
		func(*replayProgress) (*corpus, error) { return nil, loadErr })
	if err == nil || !errors.Is(err, loadErr) {
		t.Fatalf("run must surface the load failure, got %v", err)
	}
}

// signalNotifyContext mirrors main's signal wiring for the SIGTERM test.
func signalNotifyContext(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return signal.NotifyContext(context.Background(), syscall.SIGTERM)
}

func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("server never became ready")
}
