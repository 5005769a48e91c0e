package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"tind/internal/obs"
)

// reportFormat versions the JSON schema; bump on incompatible changes so
// a gate never silently compares across schemas.
const reportFormat = "tindbench/1"

// Report is the structured output of one tindbench run. The schema is
// documented in DESIGN.md §7.3.
type Report struct {
	Format     string     `json:"format"`
	Label      string     `json:"label"`
	GoVersion  string     `json:"go"`
	GOOS       string     `json:"goos"`
	GOARCH     string     `json:"goarch"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Seed       int64      `json:"seed"`
	Horizon    int        `json:"horizon_days"`
	Sizes      []int      `json:"sizes"`
	Shards     int        `json:"shards,omitempty"`
	Scenarios  []Scenario `json:"scenarios"`
}

// Scenario is one measured pipeline stage at one corpus size. With
// -repeat N the timing fields (WallNs, NsPerOp, Obs) come from the
// fastest repetition while the memory fields (BytesPerOp, AllocsPerOp,
// PeakHeapBytes) keep the worst repetition — see DESIGN.md §7.3.
type Scenario struct {
	Name string `json:"name"`
	Ops  int64  `json:"ops"`
	// WallNs is the fastest repetition's wall time; NsPerOp is that wall
	// time divided per op as a float, so high-op scenarios never truncate
	// to zero and disarm the gate.
	WallNs        int64   `json:"wall_ns"`
	NsPerOp       float64 `json:"ns_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	PeakHeapBytes uint64  `json:"peak_heap_bytes"`
	// IndexBytesPerAttr is, on the index_build and shard_build rows, the
	// built index's Stats().MemoryBytes per attribute: deterministic for a
	// seeded corpus, and gated with the allocation figures.
	IndexBytesPerAttr int64 `json:"index_bytes_per_attr,omitempty"`
	// Obs is the scenario-scoped diff of the process metric registry:
	// what this scenario alone did to the candidate funnels, work
	// counters, persist volume and GC activity.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

func writeReport(rep *Report, pathOrDash string) error {
	var w *os.File
	if pathOrDash == "-" {
		w = os.Stdout
	} else {
		f, err := os.Create(pathOrDash)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func readReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, err
	}
	if rep.Format != reportFormat {
		return nil, fmt.Errorf("%s: format %q, want %q", path, rep.Format, reportFormat)
	}
	return &rep, nil
}

// sameWorkload refuses a baseline whose seed, horizon or shard count
// differs from this run's: it measured other work, so every gated
// counter would read as drift. Sizes may differ (compare notes them).
func sameWorkload(base *Report, seed int64) error {
	if base.Seed != seed || base.Horizon != horizonDays || base.Shards != shardCount {
		return fmt.Errorf("seed %d, horizon %d, %d shards; this run has seed %d, horizon %d, %d shards",
			base.Seed, base.Horizon, base.Shards, seed, horizonDays, shardCount)
	}
	return nil
}

// gateConfig is the regression policy of a -baseline comparison.
type gateConfig struct {
	tolerance float64    // default allowed fractional ns/op growth
	overrides []override // per-scenario-pattern tolerances, first match wins
	minWallNs int64      // runs faster than this in either report are not wall-gated
}

type override struct {
	pattern   string
	tolerance float64
}

// Noise floors for the allocation gate: scenarios whose per-op memory
// footprint is below these on either side are not gated — at that scale
// the numbers are dominated by pool warm-up and GC bookkeeping rather
// than the pipeline's own allocation behaviour.
const (
	memBytesFloor  = 64 << 10 // 64 KiB/op
	memAllocsFloor = 100      // allocs/op
)

// counterTolerance bounds drift of the machine-independent work
// counters. With identical seed and sizes the pipeline does identical
// work, so these should match exactly; the slack only absorbs
// scheduling-dependent double-counting (e.g. a retryable batch).
const counterTolerance = 0.05

// gatedCounters are obs counters whose per-scenario delta is gated
// machine-independently, summed over label sets. Exact checks growing
// means the pruning stages lost power; emitted results changing means
// the answer itself changed; prefix entries read growing means the
// reverse candidate generation outside M_R's regime reads longer
// postings; window sweeps growing means more exact checks walk the
// right-hand side's versions instead of being decided by Q's vocabulary;
// closed-form checks falling means the key probe of a full scan rules
// out fewer right-hand sides, so more of them pay for a sweep.
var gatedCounters = []string{
	"tind_query_exact_checks_total",
	"tind_query_results_total",
	"tind_query_prefix_entries_read_total",
	"tind_query_window_sweeps_total",
	"tind_query_closed_form_total",
}

// parseGate builds the gate from the -tolerance / -tolerance-override
// flags; the wall-time noise floor is minWall.
func parseGate(tolerance, overrides string) (gateConfig, error) {
	g := gateConfig{minWallNs: minWall.Nanoseconds()}
	tol, err := parseTolerance(tolerance)
	if err != nil {
		return g, err
	}
	g.tolerance = tol
	if overrides != "" {
		for _, part := range strings.Split(overrides, ",") {
			pat, val, ok := strings.Cut(strings.TrimSpace(part), "=")
			if !ok {
				return g, fmt.Errorf("bad -tolerance-override entry %q (want pattern=pct)", part)
			}
			tol, err := parseTolerance(val)
			if err != nil {
				return g, err
			}
			if pat == "" {
				return g, fmt.Errorf("empty -tolerance-override pattern in %q", part)
			}
			g.overrides = append(g.overrides, override{pattern: pat, tolerance: tol})
		}
	}
	return g, nil
}

// parseTolerance accepts "10%" or a bare fraction like "0.1".
func parseTolerance(s string) (float64, error) {
	s = strings.TrimSpace(s)
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad tolerance %q", s)
	}
	if pct {
		v /= 100
	}
	return v, nil
}

// toleranceFor resolves the tolerance of one scenario name.
func (g gateConfig) toleranceFor(name string) float64 {
	for _, o := range g.overrides {
		if globMatch(o.pattern, name) {
			return o.tolerance
		}
	}
	return g.tolerance
}

// globMatch matches name against a pattern where '*' spans any run of
// characters, slashes included — so "query/*" covers "query/forward/500".
// (path.Match would stop '*' at '/', making the natural patterns useless
// for two-level scenario names.)
func globMatch(pat, name string) bool {
	parts := strings.Split(pat, "*")
	if len(parts) == 1 {
		return pat == name
	}
	if !strings.HasPrefix(name, parts[0]) {
		return false
	}
	name = name[len(parts[0]):]
	for _, mid := range parts[1 : len(parts)-1] {
		idx := strings.Index(name, mid)
		if idx < 0 {
			return false
		}
		name = name[idx+len(mid):]
	}
	return strings.HasSuffix(name, parts[len(parts)-1])
}

// compare gates cur against base scenario by scenario. It returns the
// regressions (nonzero exit) and informational notes (improvements,
// scenario-set drift). Wall time regresses when cur ns/op exceeds base
// ns/op by more than the scenario's tolerance and both runs are above
// the noise floor; the gated work counters regress when they drift
// beyond counterTolerance in either direction.
func compare(cur, base *Report, g gateConfig) (regressions, notes []string) {
	baseByName := make(map[string]Scenario, len(base.Scenarios))
	for _, sc := range base.Scenarios {
		baseByName[sc.Name] = sc
	}
	seen := make(map[string]bool, len(cur.Scenarios))
	for _, sc := range cur.Scenarios {
		seen[sc.Name] = true
		bs, ok := baseByName[sc.Name]
		if !ok {
			notes = append(notes, fmt.Sprintf("%s: not in baseline (new scenario)", sc.Name))
			continue
		}
		tol := g.toleranceFor(sc.Name)
		if sc.WallNs >= g.minWallNs && bs.WallNs >= g.minWallNs {
			// Prefer the per-op ratio; fall back to the raw wall ratio when
			// either side's ns/op is unusable (e.g. a baseline written by an
			// older run whose integer division truncated it to zero). A row
			// with no usable timing at all is skipped loudly, never silently.
			ratio, metric := 0.0, ""
			switch {
			case bs.NsPerOp > 0 && sc.NsPerOp > 0:
				ratio = sc.NsPerOp / bs.NsPerOp
				metric = fmt.Sprintf("%.0f ns/op vs baseline %.0f", sc.NsPerOp, bs.NsPerOp)
			case bs.WallNs > 0 && sc.WallNs > 0:
				ratio = float64(sc.WallNs) / float64(bs.WallNs)
				metric = fmt.Sprintf("%d ns wall vs baseline %d", sc.WallNs, bs.WallNs)
			default:
				notes = append(notes, fmt.Sprintf(
					"%s: no usable timing (cur %d ns / baseline %d ns); wall gate skipped",
					sc.Name, sc.WallNs, bs.WallNs))
			}
			switch {
			case ratio == 0:
			case ratio > 1+tol:
				regressions = append(regressions, fmt.Sprintf(
					"%s: %s (%+.1f%%, tolerance %.0f%%)",
					sc.Name, metric, 100*(ratio-1), 100*tol))
			case ratio < 1-tol:
				notes = append(notes, fmt.Sprintf("%s: improved — %s (%.1f%%)",
					sc.Name, metric, 100*(1-ratio)))
			}
		}
		// Allocation gate: growth-only, same tolerance schedule as wall
		// time. B/op and allocs/op are near-deterministic for a seeded
		// workload (unlike wall time), but tiny scenarios sit in runtime
		// noise (pool warm-up, GC bookkeeping), so each counter has a
		// floor below which the gate disarms — on either side, so a
		// baseline under the floor never gates a run above it against a
		// noise-dominated denominator. Improvements become notes: an
		// allocation drop is exactly what the batch API is for, and the
		// note is the prompt to re-baseline and lock it in. The index's
		// bytes per attribute has no noise to disarm for: it is gated
		// wherever both reports record it.
		memGates := []struct {
			what  string
			cur   int64
			base  int64
			floor int64
		}{
			{"B/op", sc.BytesPerOp, bs.BytesPerOp, memBytesFloor},
			{"allocs/op", sc.AllocsPerOp, bs.AllocsPerOp, memAllocsFloor},
			{"index B/attribute", sc.IndexBytesPerAttr, bs.IndexBytesPerAttr, 1},
		}
		for _, m := range memGates {
			if m.cur < m.floor || m.base < m.floor {
				continue
			}
			ratio := float64(m.cur) / float64(m.base)
			switch {
			case ratio > 1+tol:
				regressions = append(regressions, fmt.Sprintf(
					"%s: %d %s vs baseline %d (%+.1f%%, tolerance %.0f%%)",
					sc.Name, m.cur, m.what, m.base, 100*(ratio-1), 100*tol))
			case ratio < 1-tol:
				notes = append(notes, fmt.Sprintf(
					"%s: improved — %d %s vs baseline %d (%.1f%%)",
					sc.Name, m.cur, m.what, m.base, 100*(1-ratio)))
			}
		}
		for _, cname := range gatedCounters {
			curV, ok1 := obsSum(sc, cname)
			baseV, ok2 := obsSum(bs, cname)
			if !ok1 || !ok2 || baseV == 0 {
				continue
			}
			if curV > baseV*(1+counterTolerance) || curV < baseV*(1-counterTolerance) {
				regressions = append(regressions, fmt.Sprintf(
					"%s: %s drifted %.0f → %.0f (seeded work must be stable)",
					sc.Name, cname, baseV, curV))
			}
		}
	}
	for _, sc := range base.Scenarios {
		if !seen[sc.Name] {
			notes = append(notes, fmt.Sprintf("%s: in baseline but not in this run (matrix changed?)", sc.Name))
		}
	}
	return regressions, notes
}

// obsSum totals a metric family over all its label sets in a scenario's
// registry diff.
func obsSum(sc Scenario, name string) (float64, bool) {
	if sc.Obs == nil {
		return 0, false
	}
	total, found := 0.0, false
	for _, m := range sc.Obs.Metrics {
		if m.Name == name {
			total += m.Value
			found = true
		}
	}
	return total, found
}
