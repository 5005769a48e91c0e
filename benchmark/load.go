package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tind/internal/stats"
)

// sample is one measured HTTP call. Closed-loop clients time from send;
// the open-loop writer times from when the request was due, so a stall
// charges the wait it imposes on the requests queued behind it.
type sample struct {
	op       string
	due      time.Time
	start    time.Time
	end      time.Time
	ok       bool
	bytes    int
	engineMS float64 // body "elapsed_ms"; NaN when absent or untraced
	shed     bool    // 503
	why      string  // for a failed call: what came back
}

func (s sample) latencyMS() float64 { return float64(s.end.Sub(s.due)) / float64(time.Millisecond) }

// answer is a retained response for verification against brute force.
type answer struct {
	req  request
	body []byte
}

// loadgen drives one base URL. All clients share one keep-alive
// transport sized to the client count, so the generator never holds more
// connections than it has client goroutines.
type loadgen struct {
	base   string
	client *http.Client
	tr     *tracer // nil on the untraced pass
}

func newLoadgen(base string, conns int, tr *tracer) *loadgen {
	return &loadgen{
		base: base,
		tr:   tr,
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        conns,
				MaxIdleConnsPerHost: conns,
				MaxConnsPerHost:     conns,
				DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			},
		},
	}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// do issues one request and classifies the reply. A reply counts as
// failed unless it is a complete 200: non-200, transport errors and
// bodies marked "partial": true (a degraded scatter) all fail.
func (g *loadgen) do(r request, due time.Time) (sample, []byte) {
	s := sample{op: r.op, due: due, engineMS: math.NaN()}
	var body io.Reader
	if r.body != "" {
		body = strings.NewReader(r.body)
	}
	s.start = time.Now()
	if s.due.IsZero() {
		s.due = s.start
	}
	req, err := http.NewRequest(r.method, g.base+r.path, body)
	if err != nil {
		s.end, s.why = time.Now(), err.Error()
		return s, nil
	}
	if r.body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		s.end = time.Now()
		s.why = err.Error()
		return s, nil
	}
	buf, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.end = time.Now()
	s.bytes = len(buf)
	s.shed = resp.StatusCode == http.StatusServiceUnavailable
	s.ok = err == nil && resp.StatusCode == http.StatusOK && !bytes.Contains(buf, []byte(`"partial":true`))
	if !s.ok {
		s.why = fmt.Sprintf("%s %s: %s %.200s", r.method, r.path, resp.Status, buf)
	}
	if g.tr != nil {
		// The traced pass reads the engine's own wall time out of the body
		// and records the call as a span with the engine as its child; the
		// difference is what HTTP, admission, middleware and loopback cost.
		var b struct {
			ElapsedMS *float64 `json:"elapsed_ms"`
		}
		if json.Unmarshal(buf, &b) == nil && b.ElapsedMS != nil {
			s.engineMS = *b.ElapsedMS
		}
		g.tr.request(s)
	}
	return s, buf
}

// phaseResult is everything one closed-loop slice produced.
type phaseResult struct {
	samples []sample
	answers []answer      // with keep: the ok replies, in no particular order
	wall    time.Duration // first start to last end
	issued  int           // requests drawn from the stream
}

// closedLoop runs `clients` callers that each wait for their reply before
// sending the next request — the CLI/analyst tooling this service has —
// until dur has passed; a caller always finishes the request it started.
// Requests are drawn from gen by one shared index, starting at from, so
// the issue order is the stream's. With keep the ok replies are retained
// for verification.
func (g *loadgen) closedLoop(clients int, dur time.Duration, from int, gen func(i int) request, keep bool) phaseResult {
	var (
		next atomic.Int64
		mu   sync.Mutex
		res  phaseResult
		wg   sync.WaitGroup
		end  = time.Now().Add(dur)
	)
	next.Store(int64(from))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			var kept []answer
			for time.Now().Before(end) {
				r := gen(int(next.Add(1) - 1))
				s, body := g.do(r, time.Time{})
				local = append(local, s)
				if keep && s.ok {
					kept = append(kept, answer{req: r, body: body})
				}
			}
			mu.Lock()
			res.samples = append(res.samples, local...)
			res.answers = append(res.answers, kept...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.wall = window(res.samples)
	res.issued = int(next.Load()) - from
	return res
}

// openLoop sends gen's requests at a fixed rate from one goroutine until
// stop closes, regardless of how the server is doing — an edit feed does
// not wait for the index. Each request is timed from when it was due.
func (g *loadgen) openLoop(rate float64, gen func() request, stop <-chan struct{}) []sample {
	var out []sample
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(k) * interval)
		timer := time.After(max(0, time.Until(due)))
		select {
		case <-stop: // checked first, so a feed that runs late still stops at once
			return out
		default:
		}
		select {
		case <-stop:
			return out
		case <-timer:
		}
		s, _ := g.do(gen(), due)
		out = append(out, s)
	}
}

func window(ss []sample) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	first, last := ss[0].start, ss[0].end
	for _, s := range ss[1:] {
		if s.start.Before(first) {
			first = s.start
		}
		if s.end.After(last) {
			last = s.end
		}
	}
	return last.Sub(first)
}

// latencies returns the sorted latencies (ms) of the ok samples of one op.
func latencies(ss []sample, op string) []float64 {
	var out []float64
	for _, s := range ss {
		if s.op == op && s.ok {
			out = append(out, s.latencyMS())
		}
	}
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank percentile of a sorted slice; NaN when
// empty so that a missing population can never pass for a measurement.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailSupported reports whether percentile p of n samples has at least
// ten samples beyond it — the rule for which tail a sample can carry.
func tailSupported(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}

// median is the middle of xs (0 when empty), by the repository's own
// summary statistics.
func median(xs []float64) float64 {
	var s stats.Sample
	for _, x := range xs {
		s.Add(x)
	}
	return s.Median()
}

// counts tallies attempted and failed calls of a phase.
func counts(ss []sample) (attempted, failed, shed int) {
	for _, s := range ss {
		attempted++
		if !s.ok {
			failed++
		}
		if s.shed {
			shed++
		}
	}
	return
}
