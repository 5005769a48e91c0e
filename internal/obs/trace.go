package obs

import (
	"fmt"
	"sync"
	"time"
)

// Span is one timed phase of a query, with offsets relative to the start
// of its trace. Spans from a single trace never overlap in the query
// path's usage, but nothing in the model forbids it.
type Span struct {
	Name  string
	Start time.Duration // offset from trace start
	End   time.Duration // offset from trace start
}

// Duration returns the span's length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// String renders the span for logs: "validate +1.2ms 3.4ms".
func (s Span) String() string {
	return fmt.Sprintf("%s +%v %v", s.Name, s.Start, s.Duration())
}

// Trace collects the spans of one query. The zero value and the nil
// pointer are both valid no-op traces, so instrumented code can thread a
// *Trace unconditionally and callers only pay when they opt in.
//
// Span completion is synchronized, so phases that fan work out (e.g. a
// future parallel validation stage) may record spans from several
// goroutines; spans are kept in completion order.
type Trace struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTrace starts an empty trace clocked from now.
func NewTrace() *Trace { return &Trace{t0: time.Now()} }

// Span starts a span and returns the func that ends it. Safe on a nil
// trace, where it is a no-op.
func (t *Trace) Span(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Since(t.t0)
	return func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, Span{Name: name, Start: start, End: end})
		t.mu.Unlock()
	}
}

// Spans returns the recorded spans in completion order. Safe on nil.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}
