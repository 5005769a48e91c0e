package obs

import (
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"
)

// populate registers one metric of every kind with known values.
func populate(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	r.Counter("c_total", "count", L("mode", "forward")).Add(7)
	r.Gauge("g", "level").Set(2.5)
	h := r.Histogram("h_seconds", "latency", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1.5, 3, 10} {
		h.Observe(v)
	}
	return r
}

// TestSnapshotRoundTrip checks that every metric kind survives capture →
// JSON → decode with identical values (the tindbench report embeds
// snapshots this way).
func TestSnapshotRoundTrip(t *testing.T) {
	s := populate(t).Snapshot()

	if v := s.Value("c_total", L("mode", "forward")); v != 7 {
		t.Fatalf("counter value = %g, want 7", v)
	}
	if v := s.Value("g"); v != 2.5 {
		t.Fatalf("gauge value = %g, want 2.5", v)
	}
	m, ok := s.Get("h_seconds")
	if !ok || m.Count != 4 || m.Value != 15 {
		t.Fatalf("histogram point = %+v (ok=%v), want count 4 sum 15", m, ok)
	}
	wantBuckets := []Bucket{{LE: 1, Count: 1}, {LE: 2, Count: 2}, {LE: 5, Count: 3}}
	if !reflect.DeepEqual(m.Buckets, wantBuckets) {
		t.Fatalf("buckets = %+v, want %+v", m.Buckets, wantBuckets)
	}

	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Metrics, back.Metrics) {
		t.Fatalf("JSON round-trip changed the snapshot:\n%+v\n%+v", s.Metrics, back.Metrics)
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := populate(t)
	before := r.Snapshot()

	r.Counter("c_total", "count", L("mode", "forward")).Add(3)
	r.Gauge("g", "level").Set(4)
	r.Histogram("h_seconds", "latency", []float64{1, 2, 5}).Observe(1.5)
	// A metric registered between the snapshots must be kept whole.
	r.Counter("new_total", "late registration").Add(2)
	// An untouched metric must be dropped from the diff.
	r.Counter("idle_total", "never incremented")

	d := r.Snapshot().Diff(before)

	if v := d.Value("c_total", L("mode", "forward")); v != 3 {
		t.Fatalf("counter delta = %g, want 3", v)
	}
	if v := d.Value("g"); v != 4 {
		t.Fatalf("gauge in diff = %g, want the later level 4", v)
	}
	m, ok := d.Get("h_seconds")
	if !ok || m.Count != 1 || m.Value != 1.5 {
		t.Fatalf("histogram delta = %+v, want count 1 sum 1.5", m)
	}
	wantBuckets := []Bucket{{LE: 1, Count: 0}, {LE: 2, Count: 1}, {LE: 5, Count: 1}}
	if !reflect.DeepEqual(m.Buckets, wantBuckets) {
		t.Fatalf("bucket deltas = %+v, want %+v", m.Buckets, wantBuckets)
	}
	if v := d.Value("new_total"); v != 2 {
		t.Fatalf("late-registered counter = %g, want 2", v)
	}
	if _, ok := d.Get("idle_total"); ok {
		t.Fatal("diff kept an untouched counter")
	}

	// Diff against nil diffs against zero: non-zero metrics survive with
	// their full values, untouched ones drop out.
	nilDiff := r.Snapshot().Diff(nil)
	if v := nilDiff.Value("c_total", L("mode", "forward")); v != 10 {
		t.Fatalf("Diff(nil) counter = %g, want the full 10", v)
	}
	if _, ok := nilDiff.Get("idle_total"); ok {
		t.Fatal("Diff(nil) kept an untouched counter")
	}
	// Diff against an identical snapshot keeps nothing.
	if empty := r.Snapshot().Diff(r.Snapshot()); len(empty.Metrics) != 0 {
		t.Fatalf("self-diff kept %d metrics: %+v", len(empty.Metrics), empty.Metrics)
	}
}

func TestSnapshotFilter(t *testing.T) {
	s := populate(t).Snapshot()
	f := s.FilterPrefix("h_")
	if len(f.Metrics) != 1 || f.Metrics[0].Name != "h_seconds" {
		t.Fatalf("FilterPrefix kept %+v", f.Metrics)
	}
	if v := s.Value("missing"); v != 0 {
		t.Fatalf("missing metric value = %g, want 0", v)
	}
	if c := s.Count("missing"); c != 0 {
		t.Fatalf("missing metric count = %d, want 0", c)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 4})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile must be NaN")
	}
	// 10 observations uniform in (0,1], 10 in (1,2]: the median sits at
	// the 1.0 boundary, p75 in the middle of the second bucket.
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
	}
	if got := h.Quantile(0.5); math.Abs(got-1) > 1e-9 {
		t.Fatalf("p50 = %g, want 1", got)
	}
	if got := h.Quantile(0.75); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("p75 = %g, want 1.5", got)
	}
	if got := h.Quantile(1); math.Abs(got-2) > 1e-9 {
		t.Fatalf("p100 = %g, want 2", got)
	}
	// Mass in +Inf clamps to the highest finite bound.
	h.Observe(100)
	if got := h.Quantile(1); got != 4 {
		t.Fatalf("quantile in +Inf bucket = %g, want clamp to 4", got)
	}
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		if !math.IsNaN(h.Quantile(bad)) {
			t.Fatalf("Quantile(%g) must be NaN", bad)
		}
	}
}

// TestSnapshotConsistentUnderObserve takes snapshots while goroutines
// observe one histogram: a snapshot's Count is never below its last finite
// bucket (every value here lands in a finite bucket, so a Count read apart
// from the buckets shows up as exactly that), and never decreases.
func TestSnapshotConsistentUnderObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "latency", []float64{1, 2, 3})
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
				h.Observe(float64(i % 4))
			}
		}(g)
	}
	var last int64
	for i := 0; i < 2000; i++ {
		m, ok := r.Snapshot().Get("h_seconds")
		if !ok {
			t.Fatal("histogram missing from the snapshot")
		}
		if top := m.Buckets[len(m.Buckets)-1].Count; m.Count < top {
			t.Fatalf("snapshot %d: count %d below its last bucket %d", i, m.Count, top)
		}
		if m.Count < last {
			t.Fatalf("snapshot %d: count went from %d to %d", i, last, m.Count)
		}
		last = m.Count
	}
	close(stop)
	wg.Wait()
}
