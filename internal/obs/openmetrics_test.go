package obs

import (
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestWriteOpenMetricsFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tind_test_requests_total", "Requests served.")
	c.Add(3)
	g := r.Gauge("tind_test_pressure", "Current pressure.")
	g.Set(0.5)
	h := r.Histogram("tind_test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.ObserveExemplar(0.05, L("query_id", "q-42"))

	var b strings.Builder
	if err := r.WriteOpenMetrics(&b); err != nil {
		t.Fatalf("WriteOpenMetrics: %v", err)
	}
	out := b.String()

	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("missing # EOF terminator:\n%s", out)
	}
	// Counter metadata drops _total; the sample keeps it.
	if !strings.Contains(out, "# TYPE tind_test_requests counter\n") {
		t.Errorf("counter TYPE should use name without _total:\n%s", out)
	}
	if !strings.Contains(out, "tind_test_requests_total 3\n") {
		t.Errorf("counter sample should keep _total:\n%s", out)
	}
	if !strings.Contains(out, "tind_test_pressure 0.5\n") {
		t.Errorf("gauge sample missing:\n%s", out)
	}
	// The exemplar rides the bucket that 0.05 landed in (le="0.1").
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, `tind_test_latency_seconds_bucket{le="0.1"}`) {
			found = true
			if !strings.Contains(line, `# {query_id="q-42"} 0.05`) {
				t.Errorf("bucket line missing exemplar: %s", line)
			}
		}
		if strings.HasPrefix(line, `tind_test_latency_seconds_bucket{le="0.01"}`) &&
			strings.Contains(line, "#") {
			t.Errorf("bucket without exemplar should have no clause: %s", line)
		}
	}
	if !found {
		t.Fatalf("no le=0.1 bucket line:\n%s", out)
	}
	if !strings.Contains(out, "tind_test_latency_seconds_sum") || !strings.Contains(out, "tind_test_latency_seconds_count 2\n") {
		t.Errorf("histogram sum/count missing:\n%s", out)
	}
}

// TestRenderConsistentUnderObserve scrapes both dialects while goroutines
// observe: within every scrape the bucket counts must not decrease along
// le, and the +Inf bucket must equal _count.
func TestRenderConsistentUnderObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("tind_test_latency_seconds", "Latency.", []float64{1, 2, 3})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if v := float64(i % 5); g%2 == 0 { // 4 lands in +Inf
					h.Observe(v)
				} else {
					h.ObserveExemplar(v, L("query_id", "q"))
				}
			}
		}(g)
	}
	dialects := map[string]func(io.Writer) error{
		"prometheus": r.WritePrometheus, "openmetrics": r.WriteOpenMetrics,
	}
	for scrape := 0; scrape < 300; scrape++ {
		for name, write := range dialects {
			var b strings.Builder
			if err := write(&b); err != nil {
				t.Fatal(err)
			}
			var buckets []float64 // formatFloat renders counts >= 1e6 in exponent form
			count := -1.0
			for _, line := range strings.Split(b.String(), "\n") {
				f := strings.Fields(line)
				if len(f) < 2 {
					continue
				}
				v, err := strconv.ParseFloat(f[1], 64)
				switch {
				case strings.HasPrefix(f[0], "tind_test_latency_seconds_bucket{"):
					if err != nil {
						t.Fatalf("%s: bucket line %q: %v", name, line, err)
					}
					buckets = append(buckets, v)
				case f[0] == "tind_test_latency_seconds_count":
					count = v
				}
			}
			if len(buckets) != 4 {
				t.Fatalf("%s: want 4 bucket lines, got %d:\n%s", name, len(buckets), b.String())
			}
			for i := 1; i < len(buckets); i++ {
				if buckets[i] < buckets[i-1] {
					t.Fatalf("%s scrape %d: bucket counts decrease along le: %v", name, scrape, buckets)
				}
			}
			if buckets[3] != count {
				t.Fatalf("%s scrape %d: +Inf bucket %v != _count %v", name, scrape, buckets[3], count)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestObserveExemplarCountsMatchObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("tind_test_h", "h", []float64{1, 10})
	h.Observe(0.5)
	h.ObserveExemplar(5, L("query_id", "a"))
	h.ObserveExemplar(50, L("query_id", "b"))
	if h.Count() != 3 {
		t.Fatalf("Count = %d, want 3", h.Count())
	}
	if got := h.Sum(); got != 55.5 {
		t.Fatalf("Sum = %g, want 55.5", got)
	}
	cum := h.BucketCounts()
	if cum[0] != 1 || cum[1] != 2 || cum[2] != 3 {
		t.Fatalf("BucketCounts = %v, want [1 2 3]", cum)
	}
	ex := h.Exemplars()
	if ex[0] != nil {
		t.Errorf("bucket 0 should have no exemplar")
	}
	if ex[1] == nil || ex[1].Value != 5 || ex[1].Labels[0].Value != "a" {
		t.Errorf("bucket 1 exemplar = %+v, want value 5 query_id a", ex[1])
	}
	if ex[2] == nil || ex[2].Value != 50 {
		t.Errorf("+Inf bucket exemplar = %+v, want value 50", ex[2])
	}
	if ex[1].Time.IsZero() || time.Since(ex[1].Time) > time.Minute {
		t.Errorf("exemplar timestamp not set sanely: %v", ex[1].Time)
	}
}

func TestObserveExemplarReplaces(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("tind_test_h2", "h", []float64{1})
	h.ObserveExemplar(0.3, L("query_id", "old"))
	h.ObserveExemplar(0.7, L("query_id", "new"))
	ex := h.Exemplars()
	if ex[0] == nil || ex[0].Labels[0].Value != "new" || ex[0].Value != 0.7 {
		t.Fatalf("exemplar = %+v, want latest (new, 0.7)", ex[0])
	}
}

func TestCountAbove(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("tind_test_h3", "h", []float64{0.1, 0.5, 1})
	for _, v := range []float64{0.05, 0.05, 0.3, 0.7, 2} {
		h.Observe(v)
	}
	// Exactly at a bound: everything in higher buckets.
	if got := h.CountAbove(0.5); got != 2 {
		t.Errorf("CountAbove(0.5) = %g, want 2", got)
	}
	// Beyond the last bound: only the +Inf mass.
	if got := h.CountAbove(1); got != 1 {
		t.Errorf("CountAbove(1) = %g, want 1", got)
	}
	if got := h.CountAbove(5); got != 1 {
		t.Errorf("CountAbove(5) = %g, want 1 (+Inf mass)", got)
	}
	// Mid-bucket interpolates: threshold 0.3 splits the (0.1, 0.5] bucket
	// (1 obs) at halfway -> 0.5 of it, plus 2 above.
	if got := h.CountAbove(0.3); got != 2.5 {
		t.Errorf("CountAbove(0.3) = %g, want 2.5", got)
	}
	// Below everything: all observations.
	if got := h.CountAbove(0); got != 5 {
		t.Errorf("CountAbove(0) = %g, want 5", got)
	}
}
