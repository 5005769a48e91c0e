package obs

import (
	"fmt"
	"sync"
	"time"
)

// SLO declares one service-level objective over the instruments that
// count its events. An objective is "at least Target of events are good".
// Event counts come from one of two sources:
//
//   - Bad/Total: cumulative event counts read from live instruments (e.g.
//     requests slower than a threshold over all requests). The engine
//     differences them across each window, so they must be monotone.
//     Bad is read before Total, so a reading never has more bad events
//     than events.
//   - Probe: a per-tick boolean for conditions that are levels rather
//     than event streams (e.g. "ingest staleness within bound right
//     now"); each tick contributes one event, bad when Probe reports
//     false.
type SLO struct {
	Name        string
	Description string
	// Target is the good-event objective in (0, 1), e.g. 0.99. The error
	// budget is 1 - Target.
	Target float64
	// Bad and Total read cumulative event counts.
	Bad   func() float64
	Total func() float64
	// Probe, when non-nil, replaces Bad/Total: it reports whether the
	// objective holds at this tick.
	Probe func() bool
}

// SLOOptions configures the engine.
type SLOOptions struct {
	// Interval between ticks; 10s when zero.
	Interval time.Duration
	// Windows are the burn-rate evaluation windows; {5m, 1h} when nil.
	// The classic fast/slow pair: a short window that reacts and a long
	// window that filters blips.
	Windows []time.Duration
	// DegradeBurn, when > 0, makes Degraded report an objective whose
	// burn rate meets it in EVERY window.
	DegradeBurn float64
	// MinEvents is the minimum event count in the shortest window before
	// an objective can degrade readiness (guards cold starts); 10 when 0.
	MinEvents float64
}

// SLOWindow is one evaluated window of one objective.
type SLOWindow struct {
	Window     time.Duration `json:"-"`
	WindowText string        `json:"window"`
	// BurnRate is (bad/total within the window) divided by the error
	// budget: 1.0 means the objective is burning budget exactly as fast
	// as it can sustain, >1 means it will exhaust early.
	BurnRate   float64 `json:"burn_rate"`
	BadDelta   float64 `json:"bad"`
	TotalDelta float64 `json:"total"`
}

// SLOStatus is the /slo view of one objective.
type SLOStatus struct {
	Name        string      `json:"name"`
	Description string      `json:"description,omitempty"`
	Target      float64     `json:"target"`
	Budget      float64     `json:"error_budget"`
	Windows     []SLOWindow `json:"windows"`
	Healthy     bool        `json:"healthy"`
}

// sloSample is one tick's cumulative counts for one objective.
type sloSample struct {
	t          time.Time
	bad, total float64
}

// sloState is the engine's per-objective ring of cumulative samples.
type sloState struct {
	slo    SLO
	ring   []sloSample
	n      int // samples recorded (saturates at len(ring))
	next   int
	gauges []*Gauge // one per window
	last   []SLOWindow
}

// SLOEngine evaluates declared objectives on a fixed tick, maintaining
// multi-window burn-rate gauges (tind_slo_burn_rate{slo,window}) and a
// status view for the /slo endpoint. Each tick reads every objective's
// instruments and differences the cumulative counts across each window,
// so burn rates reflect exactly what the exported instruments saw.
type SLOEngine struct {
	opt  SLOOptions
	mu   sync.Mutex
	objs []*sloState
}

// NewSLOEngine declares objectives and registers their burn-rate gauges
// in reg. The engine does not tick until Start (or explicit Tick calls,
// which tests use for determinism).
func NewSLOEngine(reg *Registry, opt SLOOptions, objectives ...SLO) *SLOEngine {
	if opt.Interval <= 0 {
		opt.Interval = 10 * time.Second
	}
	if len(opt.Windows) == 0 {
		opt.Windows = []time.Duration{5 * time.Minute, time.Hour}
	}
	if opt.MinEvents <= 0 {
		opt.MinEvents = 10
	}
	maxWindow := opt.Windows[0]
	for _, w := range opt.Windows {
		if w > maxWindow {
			maxWindow = w
		}
	}
	ringLen := int(maxWindow/opt.Interval) + 2
	e := &SLOEngine{opt: opt}
	for _, s := range objectives {
		if s.Target <= 0 || s.Target >= 1 {
			panic(fmt.Sprintf("obs: SLO %q target %g outside (0, 1)", s.Name, s.Target))
		}
		st := &sloState{slo: s, ring: make([]sloSample, ringLen)}
		for _, w := range opt.Windows {
			st.gauges = append(st.gauges, reg.Gauge(
				"tind_slo_burn_rate",
				"Error-budget burn rate per objective and window (1.0 = burning exactly the budget).",
				L("slo", s.Name), L("window", windowText(w)),
			))
			st.last = append(st.last, SLOWindow{Window: w, WindowText: windowText(w)})
		}
		e.objs = append(e.objs, st)
	}
	return e
}

// windowText renders a window for labels and JSON: "5m", "1h", "90s".
func windowText(w time.Duration) string {
	switch {
	case w%time.Hour == 0:
		return fmt.Sprintf("%dh", int(w/time.Hour))
	case w%time.Minute == 0:
		return fmt.Sprintf("%dm", int(w/time.Minute))
	default:
		return fmt.Sprintf("%ds", int(w/time.Second))
	}
}

// Start begins ticking on the configured interval and returns a stop
// function. An immediate first tick seeds the rings so /slo has data
// right after startup.
func (e *SLOEngine) Start() (stop func()) {
	e.Tick()
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(e.opt.Interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				e.Tick()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// Tick evaluates every objective once: read its instruments, push a
// cumulative sample, recompute each window's burn rate and publish the
// gauges. Exported so tests can drive evaluation without a clock.
func (e *SLOEngine) Tick() {
	now := time.Now()
	// The readers run before the engine lock is taken: they are the
	// caller's code and may take locks of their own. A probe reading is
	// this tick's one event: bad 0 or 1 of total 1.
	reads := make([]sloSample, len(e.objs))
	for i, st := range e.objs {
		if st.slo.Probe != nil {
			reads[i].total = 1
			if !st.slo.Probe() {
				reads[i].bad = 1
			}
		} else {
			reads[i].bad = st.slo.Bad()
			reads[i].total = st.slo.Total()
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, st := range e.objs {
		cur := reads[i]
		cur.t = now
		if st.slo.Probe != nil && st.n > 0 {
			// Probe events accumulate onto the previous sample.
			last := st.ring[(st.next-1+len(st.ring))%len(st.ring)]
			cur.bad += last.bad
			cur.total += last.total
		}
		st.ring[st.next] = cur
		st.next = (st.next + 1) % len(st.ring)
		if st.n < len(st.ring) {
			st.n++
		}

		budget := 1 - st.slo.Target
		for wi, w := range e.opt.Windows {
			base := st.sampleAtOrBefore(now.Add(-w))
			badD := cur.bad - base.bad
			totalD := cur.total - base.total
			burn := 0.0
			if totalD > 0 && badD > 0 {
				burn = (badD / totalD) / budget
			}
			st.last[wi] = SLOWindow{Window: w, WindowText: windowText(w), BurnRate: burn, BadDelta: badD, TotalDelta: totalD}
			st.gauges[wi].Set(burn)
		}
	}
}

// sampleAtOrBefore returns the newest ring sample no newer than t,
// falling back to the oldest retained sample (so a young engine
// evaluates over its whole life rather than reporting nothing). Called
// with e.mu held.
func (st *sloState) sampleAtOrBefore(t time.Time) sloSample {
	if st.n == 0 {
		return sloSample{}
	}
	oldest := (st.next - st.n + len(st.ring)) % len(st.ring)
	best := st.ring[oldest]
	for i := 0; i < st.n; i++ {
		s := st.ring[(oldest+i)%len(st.ring)]
		if s.t.After(t) {
			break
		}
		best = s
	}
	return best
}

// Status returns the latest evaluation of every objective for /slo.
func (e *SLOEngine) Status() []SLOStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SLOStatus, 0, len(e.objs))
	for _, st := range e.objs {
		s := SLOStatus{
			Name:        st.slo.Name,
			Description: st.slo.Description,
			Target:      st.slo.Target,
			Budget:      1 - st.slo.Target,
			Windows:     append([]SLOWindow(nil), st.last...),
			Healthy:     true,
		}
		for _, w := range s.Windows {
			if w.BurnRate >= 1 {
				s.Healthy = false
			}
		}
		out = append(out, s)
	}
	return out
}

// Degraded reports a human-readable reason when some objective's burn
// rate meets the configured DegradeBurn in EVERY window (the
// multi-window AND that filters transient blips) with at least
// MinEvents events in the shortest window, or "" when none does or
// degradation is disabled.
func (e *SLOEngine) Degraded() string {
	if e.opt.DegradeBurn <= 0 {
		return ""
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.objs {
		if len(st.last) == 0 {
			continue
		}
		all := true
		minTotal := st.last[0].TotalDelta
		minWindow := st.last[0]
		for _, w := range st.last {
			if w.BurnRate < e.opt.DegradeBurn {
				all = false
				break
			}
			if w.Window < minWindow.Window {
				minWindow = w
			}
			if w.TotalDelta < minTotal {
				minTotal = w.TotalDelta
			}
		}
		if all && minWindow.TotalDelta >= e.opt.MinEvents {
			return fmt.Sprintf("slo %s burn rate %.2f over %s (budget-exhausting)",
				st.slo.Name, minWindow.BurnRate, minWindow.WindowText)
		}
	}
	return ""
}
