package obs

import (
	"strings"
	"testing"
	"time"
)

// testLatencySLO declares a p-latency objective over a test histogram:
// bad = observations above 0.5s, total = all observations.
func testLatencySLO(name string, target float64, h *Histogram) SLO {
	return SLO{
		Name: name, Target: target,
		Bad:   func() float64 { return h.CountAbove(0.5) },
		Total: func() float64 { return float64(h.Count()) },
	}
}

func TestSLOEngineBurnRate(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("tind_test_slo_latency", "latency", []float64{0.1, 0.5, 1})
	e := NewSLOEngine(r, SLOOptions{Interval: time.Second, Windows: []time.Duration{5 * time.Minute, time.Hour}},
		testLatencySLO("latency", 0.99, h))

	e.Tick() // baseline at zero traffic
	for i := 0; i < 90; i++ {
		h.Observe(0.01)
	}
	for i := 0; i < 10; i++ {
		h.Observe(2) // 10% bad vs a 1% budget -> burn 10
	}
	e.Tick()

	sts := e.Status()
	if len(sts) != 1 || len(sts[0].Windows) != 2 {
		t.Fatalf("Status = %+v, want 1 objective x 2 windows", sts)
	}
	for _, w := range sts[0].Windows {
		if w.BurnRate < 9.9 || w.BurnRate > 10.1 {
			t.Errorf("window %s burn = %g, want ~10", w.WindowText, w.BurnRate)
		}
		if w.TotalDelta != 100 || w.BadDelta != 10 {
			t.Errorf("window %s deltas = (%g bad, %g total), want (10, 100)", w.WindowText, w.BadDelta, w.TotalDelta)
		}
	}
	if sts[0].Healthy {
		t.Error("objective burning 10x should not be healthy")
	}

	// The gauges are registered and exported.
	snap := r.Snapshot()
	v := snap.Value("tind_slo_burn_rate", L("slo", "latency"), L("window", "5m"))
	if v < 9.9 || v > 10.1 {
		t.Errorf("tind_slo_burn_rate{slo=latency,window=5m} = %g, want ~10", v)
	}
}

func TestSLOEngineZeroTraffic(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("tind_test_slo_idle", "latency", []float64{0.5})
	e := NewSLOEngine(r, SLOOptions{Interval: time.Second},
		testLatencySLO("idle", 0.99, h))
	e.Tick()
	e.Tick()
	for _, w := range e.Status()[0].Windows {
		if w.BurnRate != 0 {
			t.Errorf("idle burn = %g, want 0", w.BurnRate)
		}
	}
	if !e.Status()[0].Healthy {
		t.Error("idle objective should be healthy")
	}
}

func TestSLOEngineProbe(t *testing.T) {
	r := NewRegistry()
	stale := false
	e := NewSLOEngine(r, SLOOptions{Interval: time.Second, Windows: []time.Duration{time.Minute}},
		SLO{Name: "staleness", Target: 0.5, Probe: func() bool { return !stale }})
	for i := 0; i < 5; i++ {
		e.Tick() // healthy ticks; the first is the differencing baseline
	}
	if got := e.Status()[0].Windows[0].BurnRate; got != 0 {
		t.Fatalf("healthy probe burn = %g, want 0", got)
	}
	stale = true
	for i := 0; i < 4; i++ {
		e.Tick()
	}
	w := e.Status()[0].Windows[0]
	// 4 bad of the 8 post-baseline ticks = 50% bad vs 50% budget -> burn 1.
	if w.BurnRate < 0.99 || w.BurnRate > 1.01 {
		t.Fatalf("stale probe burn = %g (deltas %g/%g), want ~1", w.BurnRate, w.BadDelta, w.TotalDelta)
	}
}

func TestSLOEngineDegraded(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("tind_test_slo_deg", "latency", []float64{0.1, 0.5, 1})
	e := NewSLOEngine(r, SLOOptions{Interval: time.Second, DegradeBurn: 2, MinEvents: 10},
		testLatencySLO("latency", 0.99, h))
	e.Tick()
	if got := e.Degraded(); got != "" {
		t.Fatalf("Degraded before traffic = %q, want empty", got)
	}
	for i := 0; i < 50; i++ {
		h.Observe(2) // 100% bad
	}
	e.Tick()
	got := e.Degraded()
	if got == "" || !strings.Contains(got, "latency") {
		t.Fatalf("Degraded = %q, want latency burn reason", got)
	}

	// With DegradeBurn unset the same state never degrades.
	e2 := NewSLOEngine(r, SLOOptions{Interval: time.Second},
		testLatencySLO("latency2", 0.99, h))
	e2.Tick()
	for i := 0; i < 50; i++ {
		h.Observe(2)
	}
	e2.Tick()
	if got := e2.Degraded(); got != "" {
		t.Fatalf("Degraded with DegradeBurn=0 = %q, want empty", got)
	}
}

func TestSLOEngineMinEventsGuards(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("tind_test_slo_min", "latency", []float64{0.5})
	e := NewSLOEngine(r, SLOOptions{Interval: time.Second, DegradeBurn: 2, MinEvents: 100},
		testLatencySLO("latency", 0.99, h))
	e.Tick()
	for i := 0; i < 5; i++ {
		h.Observe(2)
	}
	e.Tick()
	if got := e.Degraded(); got != "" {
		t.Fatalf("Degraded on 5 events with MinEvents=100 = %q, want empty", got)
	}
}

func TestSLOEngineStartStops(t *testing.T) {
	r := NewRegistry()
	e := NewSLOEngine(r, SLOOptions{Interval: 10 * time.Millisecond, Windows: []time.Duration{time.Minute}},
		SLO{Name: "probe", Target: 0.9, Probe: func() bool { return true }})
	stop := e.Start()
	time.Sleep(35 * time.Millisecond)
	stop()
	stop() // idempotent
	if e.Status()[0].Windows[0].TotalDelta < 1 {
		t.Fatal("Start never ticked")
	}
}
