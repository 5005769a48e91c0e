package main

import (
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"tind/internal/obs"
)

// tinyConfig runs the production workload over one small corpus.
func tinyConfig() benchConfig {
	return benchConfig{Sizes: []int{60}, Seed: 7, Repeat: 1}
}

// TestScenarioNamesMatchRun pins the contract that scenarioNames (used
// by -list and by the determinism guarantee) mirrors what runBench
// actually executes.
func TestScenarioNamesMatchRun(t *testing.T) {
	cfg := tinyConfig()
	rep, err := runBench(cfg, "test", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, sc := range rep.Scenarios {
		got = append(got, sc.Name)
	}
	if want := scenarioNames(cfg); !reflect.DeepEqual(got, want) {
		t.Fatalf("run produced %v, scenarioNames says %v", got, want)
	}

	for _, sc := range rep.Scenarios {
		if sc.Ops <= 0 || sc.WallNs <= 0 || sc.NsPerOp <= 0 {
			t.Errorf("%s: empty measurement %+v", sc.Name, sc)
		}
		if sc.PeakHeapBytes == 0 {
			t.Errorf("%s: peak heap not tracked", sc.Name)
		}
		if sc.Obs == nil {
			t.Errorf("%s: no scenario-scoped obs diff", sc.Name)
		}
		// datagen touches none of the kept metric families, so its diff
		// is legitimately empty; everything downstream must report work.
		if !strings.HasPrefix(sc.Name, "datagen/") && len(sc.Obs.Metrics) == 0 {
			t.Errorf("%s: empty obs diff", sc.Name)
		}
		// Reports carry no bucket arrays: the gate never reads them.
		for _, m := range sc.Obs.Metrics {
			if m.Buckets != nil {
				t.Errorf("%s: %s{%s} carries %d buckets", sc.Name, m.Name, m.Labels, len(m.Buckets))
			}
		}
	}
	// Query scenarios must carry the gated work counters.
	for _, name := range []string{"query/forward/60", "allpairs/60"} {
		sc := findScenario(t, rep, name)
		if _, ok := obsSum(sc, "tind_query_exact_checks_total"); !ok {
			t.Errorf("%s: missing exact-check counter in obs diff", name)
		}
	}
	// A top-k query's scan walks the windows of the few attributes that
	// can cover one of Q's versions, never more than it checks.
	sc := findScenario(t, rep, "query/topk/60")
	checks, _ := obsSum(sc, "tind_query_exact_checks_total")
	sweeps, ok := obsSum(sc, "tind_query_window_sweeps_total")
	if !ok || sweeps <= 0 || sweeps > checks {
		t.Errorf("query/topk/60: window sweeps = (%g, %v), want in (0, %g]", sweeps, ok, checks)
	}
	// The key probe decides, in closed form, some of the checks that never
	// reach the window walk, and none of those that do.
	if v, ok := obsSum(sc, "tind_query_closed_form_total"); !ok || v <= 0 || v > checks-sweeps {
		t.Errorf("query/topk/60: closed-form checks = (%g, %v), want in (0, %g]", v, ok, checks-sweeps)
	}
	// The persist scenario must see the persist byte counters.
	sc = findScenario(t, rep, "persist/roundtrip/60")
	if v, ok := obsSum(sc, "tind_persist_write_bytes_total"); !ok || v <= 0 {
		t.Errorf("persist scenario obs = (%g, %v), want positive write bytes", v, ok)
	}
}

func findScenario(t *testing.T, rep *Report, name string) Scenario {
	t.Helper()
	for _, sc := range rep.Scenarios {
		if sc.Name == name {
			return sc
		}
	}
	t.Fatalf("scenario %s missing from report", name)
	return Scenario{}
}

// TestScenarioNamesDeterministic: the scenario set depends on the sizes
// alone, and all-pairs runs up to allPairsMax attributes only.
func TestScenarioNamesDeterministic(t *testing.T) {
	cfg := benchConfig{Sizes: []int{allPairsMax, allPairsMax + 1}, Seed: 7, Repeat: 1}
	a, b := scenarioNames(cfg), scenarioNames(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("scenarioNames not deterministic")
	}
	has := map[string]bool{}
	for _, n := range a {
		has[n] = true
	}
	if want := fmt.Sprintf("allpairs/%d", allPairsMax); !has[want] {
		t.Errorf("%s missing from %v", want, a)
	}
	if extra := fmt.Sprintf("allpairs/%d", allPairsMax+1); has[extra] {
		t.Errorf("%s listed above the all-pairs limit", extra)
	}
}

// TestListGeneratesNothing: listing the scenarios of a million-attribute
// corpus builds the table without generating the corpus or drawing its
// query sample.
func TestListGeneratesNothing(t *testing.T) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	names := scenarioNames(benchConfig{Sizes: []int{1_000_000}, Seed: 1, Repeat: 1})
	runtime.ReadMemStats(&ms1)
	if len(names) == 0 || names[0] != "datagen/1000000" {
		t.Fatalf("names = %v", names)
	}
	if alloc := ms1.TotalAlloc - ms0.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("listing allocated %d bytes; the table must not touch a corpus", alloc)
	}
}

// TestSeedBaselineMatchesTable: the committed baseline holds exactly the
// table's scenarios for its sizes, in order. compare only notes a
// scenario the run lacks, so a renamed or dropped scenario would
// otherwise stop being gated without a failure.
func TestSeedBaselineMatchesTable(t *testing.T) {
	base, err := readReport(filepath.Join("..", "..", "BENCH_seed.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameWorkload(base, base.Seed); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, sc := range base.Scenarios {
		got = append(got, sc.Name)
	}
	want := scenarioNames(benchConfig{Sizes: base.Sizes, Seed: base.Seed, Repeat: 1})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCH_seed.json scenarios\n%v\ntable\n%v", got, want)
	}
}

// TestSameWorkload: a baseline of another seed, horizon or shard count
// measured other work and is refused before any gating; other sizes are
// allowed.
func TestSameWorkload(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Report)
		ok   bool
	}{
		{"same", func(*Report) {}, true},
		{"other sizes", func(r *Report) { r.Sizes = []int{300} }, true},
		{"other seed", func(r *Report) { r.Seed = 2 }, false},
		{"other horizon", func(r *Report) { r.Horizon = 300 }, false},
		{"other shards", func(r *Report) { r.Shards = 2 }, false},
		{"shards unrecorded", func(r *Report) { r.Shards = 0 }, false},
	} {
		base := &Report{Format: reportFormat, Seed: 1, Horizon: horizonDays, Sizes: []int{500}, Shards: shardCount}
		tc.edit(base)
		if err := sameWorkload(base, 1); (err == nil) != tc.ok {
			t.Errorf("%s: sameWorkload = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestParseTolerance(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
		ok   bool
	}{
		{"10%", 0.10, true},
		{"0.1", 0.1, true},
		{" 25% ", 0.25, true},
		{"0", 0, true},
		{"-5%", 0, false},
		{"abc", 0, false},
	} {
		got, err := parseTolerance(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("parseTolerance(%q) = %g, %v; want %g ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestGateOverrides(t *testing.T) {
	g, err := parseGate("10%", "allpairs/*=25%,query/*=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if tol := g.toleranceFor("allpairs/500"); tol != 0.25 {
		t.Fatalf("allpairs tolerance = %g, want 0.25", tol)
	}
	if tol := g.toleranceFor("query/forward/500"); tol != 0.5 {
		t.Fatalf("query tolerance = %g, want 0.5", tol)
	}
	if tol := g.toleranceFor("index_build/500"); tol != 0.10 {
		t.Fatalf("default tolerance = %g, want 0.10", tol)
	}
	if _, err := parseGate("10%", "missing-equals"); err == nil {
		t.Fatal("malformed override must be rejected")
	}
}

// report builds a minimal report with one scenario of the given timing
// and gated-counter value.
func mkReport(ns int64, exactChecks float64) *Report {
	snap := &obs.Snapshot{Metrics: []obs.Metric{
		{Name: "tind_query_exact_checks_total", Kind: "counter", Value: exactChecks},
	}}
	return &Report{
		Format: reportFormat,
		Scenarios: []Scenario{
			{Name: "query/forward/500", Ops: 10, WallNs: ns * 10, NsPerOp: float64(ns), Obs: snap},
		},
	}
}

func TestCompareGate(t *testing.T) {
	g := gateConfig{tolerance: 0.10}

	// Within tolerance: clean.
	if regs, _ := compare(mkReport(105, 50), mkReport(100, 50), g); len(regs) != 0 {
		t.Fatalf("5%% slower flagged at 10%% tolerance: %v", regs)
	}
	// Beyond tolerance: regression.
	if regs, _ := compare(mkReport(150, 50), mkReport(100, 50), g); len(regs) != 1 {
		t.Fatalf("50%% slower not flagged: %v", regs)
	}
	// Much faster than baseline (the doctored-slower-baseline case):
	// never a regression, only a note.
	regs, notes := compare(mkReport(50, 50), mkReport(200, 50), g)
	if len(regs) != 0 || len(notes) != 1 {
		t.Fatalf("improvement handled wrong: regs=%v notes=%v", regs, notes)
	}
	// Counter drift is a regression even when timing is fine.
	if regs, _ := compare(mkReport(100, 80), mkReport(100, 50), g); len(regs) != 1 {
		t.Fatalf("counter drift not flagged: %v", regs)
	}
	// Noise floor: sub-threshold scenarios are not wall-gated.
	gFloor := gateConfig{tolerance: 0.10, minWallNs: 1e9}
	if regs, _ := compare(mkReport(150, 50), mkReport(100, 50), gFloor); len(regs) != 0 {
		t.Fatalf("noise-floor scenario still wall-gated: %v", regs)
	}
	// Scenario-set drift: notes, not regressions.
	extra := mkReport(100, 50)
	extra.Scenarios = append(extra.Scenarios, Scenario{Name: "allpairs/500", Ops: 1, WallNs: 1, NsPerOp: 1})
	_, notes = compare(extra, mkReport(100, 50), g)
	if len(notes) != 1 {
		t.Fatalf("new scenario not noted: %v", notes)
	}
	_, notes = compare(mkReport(100, 50), extra, g)
	if len(notes) != 1 {
		t.Fatalf("vanished scenario not noted: %v", notes)
	}
}

// mkMemReport builds a report whose single scenario carries the given
// allocation profile alongside identical timing, so only the memory
// gate can fire.
func mkMemReport(bytesPerOp, allocsPerOp int64) *Report {
	rep := mkReport(100, 50)
	rep.Scenarios[0].BytesPerOp = bytesPerOp
	rep.Scenarios[0].AllocsPerOp = allocsPerOp
	return rep
}

// TestCompareMemoryGate: B/op and allocs/op regress growth-only under
// the scenario's tolerance, improvements are notes, and either side
// below the noise floor disarms that counter's gate.
func TestCompareMemoryGate(t *testing.T) {
	g := gateConfig{tolerance: 0.10}
	const aboveB, aboveA = 2 * memBytesFloor, 2 * memAllocsFloor

	// Within tolerance: clean.
	if regs, _ := compare(mkMemReport(aboveB+aboveB/20, aboveA), mkMemReport(aboveB, aboveA), g); len(regs) != 0 {
		t.Fatalf("5%% B/op growth flagged at 10%% tolerance: %v", regs)
	}
	// B/op growth beyond tolerance: regression.
	regs, _ := compare(mkMemReport(2*aboveB, aboveA), mkMemReport(aboveB, aboveA), g)
	if len(regs) != 1 || !strings.Contains(regs[0], "B/op") {
		t.Fatalf("2x B/op growth not flagged as B/op regression: %v", regs)
	}
	// allocs/op growth beyond tolerance: regression.
	regs, _ = compare(mkMemReport(aboveB, 2*aboveA), mkMemReport(aboveB, aboveA), g)
	if len(regs) != 1 || !strings.Contains(regs[0], "allocs/op") {
		t.Fatalf("2x allocs/op growth not flagged as allocs/op regression: %v", regs)
	}
	// Improvement (the batch API's whole point): a note, never a regression.
	regs, notes := compare(mkMemReport(aboveB, aboveA), mkMemReport(4*aboveB, 4*aboveA), g)
	if len(regs) != 0 || len(notes) != 2 {
		t.Fatalf("allocation improvement handled wrong: regs=%v notes=%v", regs, notes)
	}
	// Either side under the floor: gate disarmed for that counter.
	if regs, _ := compare(mkMemReport(memBytesFloor/2, memAllocsFloor/2), mkMemReport(memBytesFloor/8, memAllocsFloor/8), g); len(regs) != 0 {
		t.Fatalf("sub-floor allocation growth gated: %v", regs)
	}
	if regs, _ := compare(mkMemReport(2*aboveB, 2*aboveA), mkMemReport(memBytesFloor/2, memAllocsFloor/2), g); len(regs) != 0 {
		t.Fatalf("sub-floor baseline used as gating denominator: %v", regs)
	}
	// Per-scenario tolerance overrides cover the memory gate too.
	gWide, err := parseGate("10%", "query/*=200%")
	if err != nil {
		t.Fatal(err)
	}
	if regs, _ := compare(mkMemReport(2*aboveB, 2*aboveA), mkMemReport(aboveB, aboveA), gWide); len(regs) != 0 {
		t.Fatalf("override tolerance not applied to memory gate: %v", regs)
	}
}

// TestCompareIndexBytesGate: a build row's index bytes per attribute
// regresses on growth beyond the tolerance, whatever its size, and is
// not gated against a baseline that does not record it.
func TestCompareIndexBytesGate(t *testing.T) {
	g := gateConfig{tolerance: 0.10}
	withIndex := func(perAttr int64) *Report {
		rep := mkMemReport(0, 0)
		rep.Scenarios[0].IndexBytesPerAttr = perAttr
		return rep
	}
	if regs, _ := compare(withIndex(2100), withIndex(2000), g); len(regs) != 0 {
		t.Fatalf("5%% growth flagged at 10%% tolerance: %v", regs)
	}
	regs, _ := compare(withIndex(9800), withIndex(2000), g)
	if len(regs) != 1 || !strings.Contains(regs[0], "index B/attribute") {
		t.Fatalf("growth to 9 800 B/attribute not flagged: %v", regs)
	}
	if regs, notes := compare(withIndex(2000), withIndex(9800), g); len(regs) != 0 || len(notes) != 1 {
		t.Fatalf("shrink: regs=%v notes=%v, want one note", regs, notes)
	}
	if regs, _ := compare(withIndex(9800), withIndex(0), g); len(regs) != 0 {
		t.Fatalf("gated against a baseline without the figure: %v", regs)
	}
}

func TestReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "BENCH_test.json")
	rep := mkReport(123, 7)
	rep.Label, rep.Sizes, rep.Seed = "test", []int{500}, 3
	if err := writeReport(rep, p); err != nil {
		t.Fatal(err)
	}
	back, err := readReport(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Fatalf("report round-trip changed:\n%+v\n%+v", rep, back)
	}

	// A foreign format must be rejected, not silently compared.
	rep.Format = "go-bench-text"
	bad := filepath.Join(dir, "BENCH_bad.json")
	if err := writeReport(rep, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := readReport(bad); err == nil {
		t.Fatal("foreign report format accepted")
	}
}

func TestParseConfig(t *testing.T) {
	cfg, err := parseConfig("500, 2000", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := (benchConfig{Sizes: []int{500, 2000}, Seed: 1, Repeat: 3}); !reflect.DeepEqual(cfg, want) {
		t.Fatalf("cfg = %+v, want %+v", cfg, want)
	}
	for _, bad := range []string{"", "abc", "0", "-5"} {
		if _, err := parseConfig(bad, 1, 1); err == nil {
			t.Errorf("parseConfig(%q) accepted", bad)
		}
	}
	if _, err := parseConfig("500", 1, 0); err == nil {
		t.Error("parseConfig accepted a zero repeat count")
	}
}

// TestScenarioNsPerOpNotTruncated: with more ops than nanoseconds of
// wall time, integer division would truncate ns/op to zero and every
// downstream gate on it would silently pass. The per-op figure must stay
// a positive float no matter the op count.
func TestScenarioNsPerOpNotTruncated(t *testing.T) {
	b := &bench{cfg: benchConfig{Repeat: 1}, sampler: obs.NewRuntimeSampler(obs.Default()), log: io.Discard}
	sc, err := b.scenario("x", 1<<40, func() error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(sc.NsPerOp > 0) {
		t.Fatalf("ns/op = %v for %d ops over %d ns wall; truncated to nothing", sc.NsPerOp, sc.Ops, sc.WallNs)
	}
}

// TestCompareGatesZeroNsPerOpBaseline: a baseline row whose ns/op
// truncated to zero (the bug above, as written by older runs) must not
// disarm the wall gate — the comparison falls back to the wall-time
// ratio. And when a row has no usable timing at all, the skip is printed,
// never silent.
func TestCompareGatesZeroNsPerOpBaseline(t *testing.T) {
	g := gateConfig{tolerance: 0.10}
	base := mkReport(100, 50)
	base.Scenarios[0].NsPerOp = 0
	cur := mkReport(150, 50)
	cur.Scenarios[0].NsPerOp = 0
	regs, _ := compare(cur, base, g)
	if len(regs) != 1 {
		t.Fatalf("50%% wall regression hidden behind zero ns/op: regs=%v", regs)
	}

	base = mkReport(100, 50)
	base.Scenarios[0].NsPerOp = 0
	base.Scenarios[0].WallNs = 0
	regs, notes := compare(mkReport(150, 50), base, g)
	if len(regs) != 0 {
		t.Fatalf("untimeable baseline row must not regress: %v", regs)
	}
	skipNoted := false
	for _, n := range notes {
		if strings.Contains(n, "skip") {
			skipNoted = true
		}
	}
	if !skipNoted {
		t.Fatalf("skipped wall gate not announced in notes: %v", notes)
	}
}

// TestRepeatSplitsMinTimingMaxMemory: with -repeat N the timing columns
// must come from the fastest repetition while the memory columns keep
// the worst repetition — a fast run with a bloated heap must not launder
// its footprint through another repetition's numbers.
func TestRepeatSplitsMinTimingMaxMemory(t *testing.T) {
	b := &bench{cfg: benchConfig{Repeat: 2}, sampler: obs.NewRuntimeSampler(obs.Default()), log: io.Discard}
	var rep int
	var sink []byte
	sc, err := b.scenario("x", 1, func() error {
		rep++
		if rep == 1 {
			sink = make([]byte, 32<<20) // slow, allocation-heavy repetition
			time.Sleep(40 * time.Millisecond)
		} else {
			time.Sleep(2 * time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = sink
	if sc.WallNs >= (30 * time.Millisecond).Nanoseconds() {
		t.Fatalf("wall %d ns reports the slow repetition, want the fastest", sc.WallNs)
	}
	if sc.BytesPerOp < 32<<20 {
		t.Fatalf("bytes/op %d dropped the heavy repetition's allocations, want max across repeats", sc.BytesPerOp)
	}
	if sc.PeakHeapBytes < 32<<20 {
		t.Fatalf("peak heap %d dropped the heavy repetition, want max across repeats", sc.PeakHeapBytes)
	}
}
