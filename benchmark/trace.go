package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer, recorded from the benchmark's own side
// of the boundary. Spans of one request share Req; Parent is the span
// that caused this one (0 for a root). Times are nanoseconds since the
// tracer was created. SelfNS is filled in when the trace is written.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the benchmark ends; nothing is
// written while a measurement runs.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newReq() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// add records a span and returns its id for use as a parent.
func (t *tracer) add(parent, req int, name string, start time.Time, d time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	s := start.Sub(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, StartNS: s, EndNS: s + d.Nanoseconds()})
	return id
}

// request records one HTTP call as serve.request with the engine's own
// reported wall time as its child. The body only gives the engine's
// duration, not when it began, so the child is centred in the parent.
func (t *tracer) request(s sample) {
	req := t.newReq()
	total := s.end.Sub(s.start)
	id := t.add(0, req, "serve.request:"+s.op, s.start, total)
	if !math.IsNaN(s.engineMS) {
		eng := time.Duration(s.engineMS * float64(time.Millisecond))
		if eng > total {
			eng = total
		}
		t.add(id, req, "engine", s.start.Add((total-eng)/2), eng)
	}
}

// finish computes every span's self time: its duration minus the part of
// its interval that its children cover (children of a scatter overlap, so
// the union is taken, not the sum).
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range t.spans {
		p := &t.spans[i]
		ks := kids[p.ID]
		sort.Slice(ks, func(a, b int) bool { return t.spans[ks[a]].StartNS < t.spans[ks[b]].StartNS })
		var covered, cursor int64 = 0, p.StartNS
		for _, k := range ks {
			s, e := max(t.spans[k].StartNS, cursor), min(t.spans[k].EndNS, p.EndNS)
			if e > s {
				covered += e - s
				cursor = e
			}
		}
		p.SelfNS = (p.EndNS - p.StartNS) - covered
	}
	return t.spans
}

// layerSummary aggregates the trace per span name.
type layerSummary struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func summarize(spans []span) map[string]layerSummary {
	out := map[string]layerSummary{}
	for _, s := range spans {
		l := out[s.Name]
		l.Count++
		l.TotalMS += float64(s.EndNS-s.StartNS) / 1e6
		l.SelfMS += float64(s.SelfNS) / 1e6
		out[s.Name] = l
	}
	return out
}

// write dumps the trace: a per-layer summary first (what a reader wants),
// then every span.
func (t *tracer) write(path string) error {
	spans := t.finish()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(struct {
		Layers map[string]layerSummary `json:"layers"`
		Spans  []span                  `json:"spans"`
	}{summarize(spans), spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
