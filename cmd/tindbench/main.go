// Command tindbench is the repository's macro-benchmark harness: it
// generates seeded synthetic corpora, runs the full pipeline — corpus
// generation, index build, forward/reverse/top-k queries, all-pairs
// discovery and a persist round-trip — over a matrix of corpus sizes,
// and writes a structured BENCH_<label>.json with per-scenario wall
// time, ns/op, allocation counts, peak heap and a scenario-scoped
// obs-registry diff (candidate funnels, work counters, build and
// persist costs), and each build's index bytes per attribute.
//
// Usage:
//
//	tindbench -sizes 500,2000 -seed 1 -label dev
//	tindbench -sizes 500,2000 -baseline BENCH_seed.json -tolerance 10%
//	tindbench -list
//
// Every size runs one fixed workload (the constants in scenarios.go), so
// -sizes and -seed name a run: two runs with the same flags produce the
// same scenario names and the same counter values. With -baseline, the
// run is compared scenario by scenario against a previous report of the
// same seed: wall-time regressions beyond the tolerance (default
// -tolerance, overridable per scenario pattern with -tolerance-override)
// and drifts in the machine-independent work counters (exact
// validations, emitted results) exit nonzero, so CI can gate on a
// committed baseline.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	var (
		sizes     = flag.String("sizes", "500,2000", "comma-separated corpus sizes (attributes)")
		seed      = flag.Int64("seed", 1, "random seed for corpora, index and query sampling")
		repeat    = flag.Int("repeat", 1, "runs per scenario; timing reports the fastest, memory the worst")
		label     = flag.String("label", "local", "report label; default output is BENCH_<label>.json")
		out       = flag.String("out", "", `output path ("-" = stdout; default BENCH_<label>.json)`)
		list      = flag.Bool("list", false, "print the scenario names this flag set would run, then exit")
		baseline  = flag.String("baseline", "", "compare against a previous report and gate on regressions")
		tolerance = flag.String("tolerance", "10%", "allowed ns/op regression vs the baseline (e.g. 10% or 0.1)")
		overrides = flag.String("tolerance-override", "", `per-scenario tolerances, e.g. "allpairs/*=25%,query/*=20%"`)
	)
	flag.Parse()

	cfg, err := parseConfig(*sizes, *seed, *repeat)
	if err != nil {
		fatal(err)
	}

	if *list {
		for _, name := range scenarioNames(cfg) {
			fmt.Println(name)
		}
		return
	}

	gate, err := parseGate(*tolerance, *overrides)
	if err != nil {
		fatal(err)
	}
	var base *Report
	if *baseline != "" {
		if base, err = readReport(*baseline); err == nil {
			err = sameWorkload(base, cfg.Seed)
		}
		if err != nil {
			fatal(fmt.Errorf("baseline: %w", err))
		}
	}

	rep, err := runBench(cfg, *label, os.Stderr)
	if err != nil {
		fatal(err)
	}

	path := *out
	if path == "" {
		path = "BENCH_" + *label + ".json"
	}
	if err := writeReport(rep, path); err != nil {
		fatal(err)
	}
	if path != "-" {
		fmt.Fprintf(os.Stderr, "tindbench: wrote %s (%d scenarios)\n", path, len(rep.Scenarios))
	}

	if base != nil {
		regressions, notes := compare(rep, base, gate)
		for _, n := range notes {
			fmt.Fprintln(os.Stderr, "tindbench: note:", n)
		}
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "tindbench: REGRESSION:", r)
		}
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "tindbench: %d scenario(s) regressed beyond tolerance vs %s\n",
				len(regressions), *baseline)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "tindbench: no regressions vs %s\n", *baseline)
	}
}

// parseConfig validates the benchmark matrix flags.
func parseConfig(sizesCSV string, seed int64, repeat int) (benchConfig, error) {
	cfg := benchConfig{Seed: seed, Repeat: repeat}
	for _, f := range strings.Split(sizesCSV, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(f, "%d", &n); err != nil || n <= 0 {
			return cfg, fmt.Errorf("bad size %q in -sizes", f)
		}
		cfg.Sizes = append(cfg.Sizes, n)
	}
	if len(cfg.Sizes) == 0 {
		return cfg, fmt.Errorf("-sizes is empty")
	}
	if repeat <= 0 {
		return cfg, fmt.Errorf("-repeat must be positive")
	}
	return cfg, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tindbench:", err)
	os.Exit(2)
}
