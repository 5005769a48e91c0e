package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// TestContractMatchesFile pins BENCHMARK.json to the tables the program
// measures by. On a mismatch the wanted file is written to
// benchmark/out/BENCHMARK.json (ignored by git), to be copied over the
// one at the root.
func TestContractMatchesFile(t *testing.T) {
	want, err := contract()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("out", "BENCHMARK.json"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Fatal("BENCHMARK.json differs from the program's tables: copy benchmark/out/BENCHMARK.json over it")
}

// contract renders BENCHMARK.json from the program's metric and workload
// tables, so the file and the program cannot drift apart.
func contract() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	c := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layer     `json:"per_layer"`
	}{
		Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"},
		RunSeconds: defaultSeconds, EndToEnd: endToEnd,
	}
	for _, w := range workloads {
		if !w.suiteOnly {
			c.Workloads = append(c.Workloads, wl{w.Name, w.Why})
		}
	}
	for _, d := range perLayer {
		c.PerLayer = append(c.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	buf, err := json.MarshalIndent(c, "", "  ")
	return append(buf, '\n'), err
}

func TestContractLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		t.Helper()
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q outside the contract's alphabet", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better=%q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range perLayer {
		check(d)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		check(metricDef{Name: w.Name, Unit: "x", Better: "lower"})
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	for _, n := range exactLayerCounters {
		if !seen[n] {
			t.Errorf("exact counter %q is not a per-layer metric", n)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q3 = quartiles([]float64{1, 1, 3, 4, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Fatalf("quartiles = %g, %g; want 1, 4.5", q1, q3)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing must be NaN")
	}
}

func reportOf(workload string, metric string, vals ...float64) *report {
	r := &report{}
	for _, v := range vals {
		r.Runs = append(r.Runs, runResult{Workload: workload, Metrics: map[string]value{metric: {Value: v, Unit: "ms"}}})
	}
	return r
}

func TestCompareVerdicts(t *testing.T) {
	verdict := func(a, b *report) string {
		rows := compareReports(a, b)
		if len(rows) != 1 {
			t.Fatalf("%d rows, want 1", len(rows))
		}
		return rows[0].Verdict
	}
	base := reportOf("mono", "search_p50_ms", 1.00, 1.01, 0.99) // bound 25 %
	if v := verdict(base, reportOf("mono", "search_p50_ms", 1.05, 1.04, 1.06)); v != "ok" {
		t.Errorf("5 %% slower: %s, want ok", v)
	}
	if v := verdict(base, reportOf("mono", "search_p50_ms", 1.40, 1.41, 1.39)); v != "worse" {
		t.Errorf("40 %% slower: %s, want worse", v)
	}
	if v := verdict(base, reportOf("mono", "search_p50_ms", 0.5, 0.5, 0.5)); v != "ok" {
		t.Errorf("faster: %s, want ok", v)
	}
	if v := verdict(base, reportOf("mono", "search_p50_ms", 0.8, 1.0, 1.3)); v != "unresolved" {
		t.Errorf("spread beyond the bound: %s, want unresolved", v)
	}
	// One run a side says nothing about noise: never "ok" or "worse".
	if v := verdict(reportOf("mono", "search_p50_ms", 1.0), reportOf("mono", "search_p50_ms", 1.5)); v != "unresolved" {
		t.Errorf("single runs: %s, want unresolved", v)
	}
	// Higher is better for throughput.
	qa, qb := reportOf("mono", "point_qps", 2000, 2000, 2000), reportOf("mono", "point_qps", 1400, 1400, 1400)
	if v := verdict(qa, qb); v != "worse" {
		t.Errorf("30 %% less throughput: %s, want worse", v)
	}
	// Any increase in failures is worse, whatever the bound.
	fa, fb := reportOf("mono", "failed_ratio", 0), reportOf("mono", "failed_ratio", 0.001)
	if v := verdict(fa, fb); v != "worse" {
		t.Errorf("more failures: %s, want worse", v)
	}
}

func TestDriverLineCarriesExactlyTheListedMetrics(t *testing.T) {
	r := &runResult{Workload: "mono", Correct: true, Attempted: 10, Metrics: map[string]value{}}
	for _, d := range endToEnd {
		r.set(d.Name, d.Unit, 1.5)
	}
	r.set("topk_p90_ms", "ms", 9) // an extra must not leak into the line
	line, err := r.driverLine(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("driver line has keys %v, want exactly correct, attempted, failed, metrics", got)
	}
	var metrics map[string]value
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Fatalf("%d metrics in the line, want %d", len(metrics), len(endToEnd))
	}
	delete(r.Metrics, "setup_s")
	if _, err := r.driverLine(endToEnd); err == nil {
		t.Fatal("a missing metric must be an error, not a silent gap")
	}
}

func TestSelfTimeIsSpanMinusChildCoverage(t *testing.T) {
	tr := newTracer()
	t0 := tr.epoch
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Sequential children: self = 100 − (30 + 50).
	seq := tr.add(0, 1, "index.query", at(0), 100*time.Millisecond)
	tr.add(seq, 1, "mt_prune", at(0), 30*time.Millisecond)
	tr.add(seq, 1, "validate", at(30), 50*time.Millisecond)
	// Overlapping scatter legs: covered is their union, 60, not their sum.
	sc := tr.add(0, 2, "shard.query", at(200), 80*time.Millisecond)
	tr.add(sc, 2, "leg:0", at(200), 60*time.Millisecond)
	tr.add(sc, 2, "leg:1", at(200), 40*time.Millisecond)
	spans := tr.finish()
	if got := spans[seq-1].SelfNS; got != (20 * time.Millisecond).Nanoseconds() {
		t.Errorf("sequential self = %d ns, want 20 ms", got)
	}
	if got := spans[sc-1].SelfNS; got != (20 * time.Millisecond).Nanoseconds() {
		t.Errorf("scatter self = %d ns, want 20 ms", got)
	}
	sum := summarize(spans)
	if l := sum["index.query"]; l.Count != 1 || l.TotalMS != 100 || l.SelfMS != 20 {
		t.Errorf("summary %+v", l)
	}
}

// A class whose every call failed has no percentile; the report must still
// be written, with the metric left out.
func TestReportSurvivesAnEmptyPopulation(t *testing.T) {
	r := runResult{Workload: "mono", Metrics: map[string]value{}}
	r.set("topk_p50_ms", "ms", percentile(nil, 0.5))
	r.set("search_p50_ms", "ms", 1.25)
	if _, ok := r.Metrics["topk_p50_ms"]; ok {
		t.Fatal("a NaN percentile was recorded as a metric")
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := (&report{Runs: []runResult{r}}).write(path); err != nil {
		t.Fatalf("writing a report with an empty population: %v", err)
	}
	if _, err := r.driverLine(endToEnd); err == nil {
		t.Fatal("the driver line must name the missing metric, not pass")
	}
}
