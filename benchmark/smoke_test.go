package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeAllWorkloads boots real tindserve processes for every workload
// on a 300-attribute corpus with sub-second phases, untraced and traced,
// and checks the contract end to end: every metric emitted with its unit,
// nothing failed, the trace accounts for its spans, the exact counters
// repeat under one seed, and a report compares all-ok against itself.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots server processes")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(root, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killAllProcs)

	sized, err := generateCorpus(300, 400)
	if err != nil {
		t.Fatal(err)
	}
	attrs := sized.Dataset.Len()

	out := t.TempDir()
	config := func(w workloadDef, trace, inProcess bool) runConfig {
		return runConfig{
			workload: w, seed: 11, seconds: 1, trace: trace, inProcess: inProcess, attrs: 300, horizon: 400,
			boots: 1, clients: nproc(), bin: bin,
			workDir: t.TempDir(), outDir: out, log: io.Discard,
		}
	}
	rep := &report{Seed: 11}
	exact := map[string]float64{}
	for wi, w := range workloads {
		for _, trace := range []bool{false, true} {
			// The in-process pass is the same whatever the tier: two traced
			// runs carry it (the exact counters must repeat), the others are
			// the suite's kind, HTTP only.
			inProcess := trace && wi < 2
			res, err := runWorkload(config(w, trace, inProcess))
			if err != nil {
				t.Fatalf("%s (trace=%v): %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s (trace=%v): correct=%v attempted=%d failed=%d\n%s",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, strings.Join(res.Errors, "\n"))
			}
			if trace && !inProcess {
				checkTrace(t, filepath.Join(out, "trace-"+w.Name+".json"), false)
				if _, ok := res.Metrics["serve.search_overhead_us"]; !ok {
					t.Errorf("%s: traced run without serve.search_overhead_us", w.Name)
				}
				if w.ingest && res.Metrics["serve.applies"].Value == 0 {
					t.Errorf("%s: the edit feed was never applied", w.Name)
				}
				continue
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			line, err := res.driverLine(defs)
			if err != nil {
				t.Fatalf("%s (trace=%v): %v", w.Name, trace, err)
			}
			var parsed struct {
				Metrics map[string]value `json:"metrics"`
			}
			if err := json.Unmarshal(line, &parsed); err != nil {
				t.Fatal(err)
			}
			for _, d := range defs {
				if got := parsed.Metrics[d.Name]; got.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, want %q", w.Name, d.Name, got.Unit, d.Unit)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.Name, d.Name, res.Metrics[d.Name].Value)
					}
				}
				if w.ingest {
					for _, n := range []string{"ingest_ack_p50_ms", "ingest_ack_p99_ms", "search_mixed_p99_ms", "gen_late_p99_ms", "ingest_applies"} {
						if _, ok := res.Metrics[n]; !ok {
							t.Errorf("%s: no %s", w.Name, n)
						}
					}
				}
			} else {
				checkTrace(t, filepath.Join(out, "trace-"+w.Name+".json"), true)
				if got := res.Metrics["index.topk_exact_checks"].Value; got != float64(attrs-1) {
					t.Errorf("index.topk_exact_checks = %g, want |D|-1 = %d (the known full-scan cliff)", got, attrs-1)
				}
				// Same seed, same corpus: the exact counters repeat bit for bit
				// from one traced run to the next, whatever the workload.
				for _, n := range exactLayerCounters {
					v := res.Metrics[n].Value
					if prev, ok := exact[n]; ok && prev != v {
						t.Errorf("exact counter %s changed between runs under one seed: %v then %v", n, prev, v)
					}
					exact[n] = v
				}
			}
			// Twice: -compare calls a row unresolved when a side has a single
			// run, and this test is about the round trip, not about noise.
			rep.Runs = append(rep.Runs, *res, *res)
		}
	}

	// The report survives a round trip and compares all-ok against itself.
	path := filepath.Join(out, "report.json")
	if err := rep.write(path); err != nil {
		t.Fatal(err)
	}
	back, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := compareReports(rep, back)
	if want := len(workloads) * len(endToEnd); len(rows) < want {
		t.Fatalf("compare produced %d rows, want at least %d", len(rows), want)
	}
	if !printCompare(io.Discard, rows) {
		t.Fatal("a report compared against itself is not all-ok")
	}
}

// checkTrace reads a written trace and checks its accounting: for every
// engine query span, the time its children cover plus its self time is
// the span (within 1 %), and no child reaches outside its parent's start.
func checkTrace(t *testing.T, path string, inProcess bool) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Layers map[string]layerSummary `json:"layers"`
		Spans  []span                  `json:"spans"`
	}
	if err := json.Unmarshal(buf, &tr); err != nil {
		t.Fatal(err)
	}
	byID := make(map[int]span, len(tr.Spans))
	childSum := map[int]int64{}
	for _, s := range tr.Spans {
		byID[s.ID] = s
	}
	for _, s := range tr.Spans {
		if s.Parent != 0 {
			p := byID[s.Parent]
			childSum[s.Parent] += min(s.EndNS, p.EndNS) - max(s.StartNS, p.StartNS)
		}
	}
	seen := map[string]bool{}
	for _, s := range tr.Spans {
		kind, _, _ := strings.Cut(s.Name, ":")
		seen[kind] = true
		if kind != "index.query" {
			continue
		}
		// Children of a monolith query are its phases, end to end.
		dur := s.EndNS - s.StartNS
		if diff := childSum[s.ID] + s.SelfNS - dur; diff > dur/100 || diff < -dur/100 {
			t.Fatalf("span %d (%s): children %d + self %d != duration %d", s.ID, s.Name, childSum[s.ID], s.SelfNS, dur)
		}
	}
	for _, s := range tr.Spans {
		if kind, _, _ := strings.Cut(s.Name, ":"); kind == "shard.query" || kind == "router.query" {
			if s.SelfNS < 0 || s.SelfNS > s.EndNS-s.StartNS {
				t.Fatalf("span %d (%s): self time %d outside [0, duration %d]", s.ID, s.Name, s.SelfNS, s.EndNS-s.StartNS)
			}
		}
	}
	kinds := []string{"serve.request", "engine"}
	if inProcess {
		kinds = append(kinds, "index.query", "shard.query", "router.query",
			"persist.read", "index.build", "wal.append", "ingest.submit", "ingest.flush")
	}
	for _, kind := range kinds {
		if !seen[kind] {
			t.Errorf("trace has no %s span", kind)
		}
	}
}
