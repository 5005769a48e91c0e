package obs

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "a counter"); again != c {
		t.Fatal("re-registration must return the same counter")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
}

func TestHistogramBucketMath(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "a histogram", []float64{1, 2, 5})
	// Edges are inclusive upper bounds; 7 lands in +Inf.
	for _, v := range []float64{0.5, 1, 1.5, 2, 5, 7} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	if got, want := h.Sum(), 0.5+1+1.5+2+5+7; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	// Cumulative per bound: ≤1: {0.5,1}=2; ≤2: +{1.5,2}=4; ≤5: +{5}=5; +Inf: 6.
	want := []int64{2, 4, 5, 6}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("bucket count slice %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cumulative buckets = %v, want %v", got, want)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{10})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 || h.Sum() != 8000 {
		t.Fatalf("count=%d sum=%g, want 8000/8000", h.Count(), h.Sum())
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 10, 4)
	want := []float64{1, 10, 100, 1000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

// TestWritePrometheus checks the text exposition end to end: HELP/TYPE
// lines, label rendering, histogram _bucket/_sum/_count series, and that
// every sample line parses as name{labels} float.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "requests", L("mode", "forward")).Add(3)
	r.Gauge("fill_ratio", "bloom fill", L("matrix", "m_t")).Set(0.25)
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE req_total counter",
		`req_total{mode="forward"} 3`,
		"# TYPE fill_ratio gauge",
		`fill_ratio{matrix="m_t"} 0.25`,
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	checkExposition(t, out)
}

// TestRenderConsistentUnderObserve scrapes while goroutines observe:
// within every scrape the bucket counts must not decrease along le, and
// the +Inf bucket must equal _count.
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
				h.Observe(float64(i % 5)) // 4 lands in +Inf
			}
		}(g)
	}
	for scrape := 0; scrape < 300; scrape++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
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
					t.Fatalf("bucket line %q: %v", line, err)
				}
				buckets = append(buckets, v)
			case f[0] == "tind_test_latency_seconds_count":
				count = v
			}
		}
		if len(buckets) != 4 {
			t.Fatalf("want 4 bucket lines, got %d:\n%s", len(buckets), b.String())
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i] < buckets[i-1] {
				t.Fatalf("scrape %d: bucket counts decrease along le: %v", scrape, buckets)
			}
		}
		if buckets[3] != count {
			t.Fatalf("scrape %d: +Inf bucket %v != _count %v", scrape, buckets[3], count)
		}
	}
	close(stop)
	wg.Wait()
}

// checkExposition validates that every non-comment line of a text
// exposition is `name{labels} value` with a parseable value.
func checkExposition(t *testing.T, out string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		if name == "" || strings.ContainsAny(name, " \t") {
			t.Fatalf("malformed metric name in %q", line)
		}
		if val != "+Inf" && val != "-Inf" {
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				t.Fatalf("unparseable value in %q: %v", line, err)
			}
		}
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering m as gauge after counter must panic")
		}
	}()
	r.Gauge("m", "")
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
