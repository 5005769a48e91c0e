package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestTraceZeroDurationSpan: a span ended in the same instant it started
// must still be recorded, with a non-negative duration and a printable
// form.
func TestTraceZeroDurationSpan(t *testing.T) {
	tr := NewTrace()
	tr.Span("instant")() // end immediately
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %v, want exactly the instant span", spans)
	}
	if d := spans[0].Duration(); d < 0 {
		t.Fatalf("duration = %v, want ≥ 0", d)
	}
	if s := spans[0].String(); !strings.HasPrefix(s, "instant +") {
		t.Fatalf("span string = %q", s)
	}
}

// TestTraceNestedSpanOrdering: spans close in completion order, so a
// nested (inner) span appears before the outer one that contains it, and
// the outer span's window covers the inner's.
func TestTraceNestedSpanOrdering(t *testing.T) {
	tr := NewTrace()
	endOuter := tr.Span("outer")
	endInner := tr.Span("inner")
	endInner()
	endOuter()

	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "inner" || spans[1].Name != "outer" {
		t.Fatalf("spans = %v, want completion order inner, outer", spans)
	}
	inner, outer := spans[0], spans[1]
	if outer.Start > inner.Start || outer.End < inner.End {
		t.Fatalf("outer %v does not contain inner %v", outer, inner)
	}
}

// TestTraceConcurrentSpans exercises concurrent span completion on one
// trace under the race detector: every span must be recorded exactly
// once and reads must not tear.
func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace()
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				end := tr.Span(fmt.Sprintf("w%d", w))
				end()
				_ = tr.Spans() // concurrent reader
			}
		}(w)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != workers*perWorker {
		t.Fatalf("recorded %d spans, want %d", got, workers*perWorker)
	}
}

// TestGaugeAddContention: the CAS loop in Gauge.Add must not lose
// updates under contention (race-detector exercised).
func TestGaugeAddContention(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "contended")
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g.Add(1)
				g.Add(-1)
				g.Add(2)
			}
		}()
	}
	wg.Wait()
	if got, want := g.Value(), float64(workers*perWorker*2); got != want {
		t.Fatalf("gauge = %g, want %g", got, want)
	}
}
