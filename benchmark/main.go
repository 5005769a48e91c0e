// Command benchmark is the repository's end-to-end serving benchmark: it
// generates a corpus, boots real tindserve processes (monolith, a router
// over two shard servers, and -shards 4 with a WAL), drives them over HTTP
// from closed-loop clients (plus an open-loop edit feed on the ingest
// workload), verifies answers against brute force, and prints every
// metric by name with its unit. A traced run adds the per-layer ledger.
//
// One workload, one JSON line last (the BENCHMARK.json contract):
//
//	go run ./benchmark -workload mono -seed 1 -seconds 30 -trace 0
//
// The whole suite into benchmark/out/report.json, then two reports
// compared against the metric bounds:
//
//	go run ./benchmark -seed 1 -runs 3
//	go run ./benchmark -compare a.json b.json
//
// benchmark/run.sh wraps both and keeps every build artefact inside the
// checkout. cmd/tindbench stays the in-process CI micro-gate; a claim
// about what a client of the service sees must cite this harness.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllProcs()
		if dir, ok := scratchDir.Load().(string); ok {
			os.RemoveAll(dir)
		}
		os.Exit(130)
	}()
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	killAllProcs()
	os.Exit(code)
}

// What every report is measured on. These are constants, not flags: a
// report made with other values is not comparable with any other.
const (
	// defaultSeconds is a run's measured time; BENCHMARK.json's run_seconds.
	defaultSeconds = 30
	corpusAttrs    = 8000
	corpusHorizon  = 1500
	// setupBoots is how often an untraced run boots its tier; setup_s is the
	// median.
	setupBoots = 3
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	runs     int
	noTrace  bool
	out      string
	compare  bool
}

// fail prints err the way every exit path of the command does.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "benchmark:", err)
	return 1
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run this one workload and print one JSON line last (default: the whole suite)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the query stream and the ingest feed")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "measured seconds per run")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 0 = end-to-end metrics, 1 = traced run with the per-layer metrics")
	fs.IntVar(&o.runs, "runs", 1, "suite: untraced runs per workload")
	fs.BoolVar(&o.noTrace, "no-trace", false, "suite: skip the traced pass")
	fs.StringVar(&o.out, "out", "", "suite: report path (default benchmark/out/report.json)")
	fs.BoolVar(&o.compare, "compare", false, "compare two suite reports: -compare baseline.json candidate.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare baseline.json candidate.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	root, err := repoRoot()
	if err != nil {
		return fail(stderr, err)
	}
	bin, err := buildServer(root, stderr)
	if err != nil {
		return fail(stderr, err)
	}
	if o.workload != "" {
		return runOne(o, root, bin, stdout, stderr)
	}
	return runSuite(o, root, bin, stdout, stderr)
}

// repoRoot walks up from the working directory to the module root.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if buf, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(buf), "module tind\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no tind module root above the working directory: run from inside a checkout")
		}
		dir = parent
	}
}

// buildDir holds what building and running leave behind, inside the
// checkout (and named in .gitignore).
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildServer builds the program under test; an up-to-date binary is left
// alone by the go tool, so repeat runs pay almost nothing.
func buildServer(root string, stderr io.Writer) (string, error) {
	bin := filepath.Join(buildDir(root), "bin", "tindserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tindserve")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = stderr, stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building tindserve: %w", err)
	}
	return bin, nil
}

// config is one run of w on the reference corpus. A traced run boots once
// (setup_s is an end-to-end metric) and runs the in-process pass if asked.
func (o options) config(w workloadDef, root, bin string, trace, inProcess bool, stderr io.Writer) runConfig {
	boots := setupBoots
	if trace {
		boots = 1
	}
	return runConfig{
		workload: w, seed: o.seed, seconds: o.seconds, trace: trace, inProcess: inProcess,
		attrs: corpusAttrs, horizon: corpusHorizon, boots: boots,
		clients: nproc(), bin: bin,
		workDir: filepath.Join(buildDir(root), "work", fmt.Sprintf("%s-%d", w.Name, os.Getpid())),
		outDir:  filepath.Join(root, "benchmark", "out"),
		log:     stderr,
	}
}

// scratchDir is the running workload's scratch directory, for the signal
// handler: an interrupted run leaves nothing behind either.
var scratchDir atomic.Value

// execute runs one workload and always removes its scratch directory.
func execute(cfg runConfig) (*runResult, error) {
	scratchDir.Store(cfg.workDir)
	defer os.RemoveAll(cfg.workDir)
	return runWorkload(cfg)
}

// runOne is the driver mode: human-readable metrics on stderr, then one
// JSON object as the last line of stdout. The contract wants every
// per-layer metric from every workload's traced run, so each runs the
// in-process pass for itself.
func runOne(o options, root, bin string, stdout, stderr io.Writer) int {
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	trace := o.trace != 0
	res, err := execute(o.config(w, root, bin, trace, trace, stderr))
	if err != nil {
		return fail(stderr, err)
	}
	printRun(stderr, res)
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	line, err := res.driverLine(defs)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runSuite runs every workload (-runs untraced runs each, then one traced
// run), writes the report and prints each run's metrics. The in-process
// layer pass does not depend on the tier; the first workload's traced run
// carries it.
func runSuite(o options, root, bin string, stdout, stderr io.Writer) int {
	rep := &report{Nproc: nproc(), GoVersion: runtime.Version(), Commit: commit(root),
		Seed: o.seed, Attrs: corpusAttrs, Horizon: corpusHorizon, Seconds: o.seconds}
	correct := true
	for wi, w := range workloads {
		for i := 0; i < o.runs+1; i++ {
			trace := i == o.runs
			if trace && o.noTrace {
				continue
			}
			res, err := execute(o.config(w, root, bin, trace, trace && wi == 0, stderr))
			if err != nil {
				return fail(stderr, err)
			}
			printRun(stdout, res)
			correct = correct && res.Correct
			rep.Runs = append(rep.Runs, *res)
		}
	}
	out := o.out
	if out == "" {
		out = filepath.Join(root, "benchmark", "out", "report.json")
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return fail(stderr, err)
	}
	if err := rep.write(out); err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintln(stdout, "report written to", out)
	if !o.noTrace {
		printLedger(stdout, rep)
	}
	if !correct {
		fmt.Fprintln(stderr, "benchmark: verification failed")
		return 1
	}
	return 0
}

func compareFiles(a, b string, stdout, stderr io.Writer) int {
	ra, err := readReport(a)
	if err != nil {
		return fail(stderr, err)
	}
	rb, err := readReport(b)
	if err != nil {
		return fail(stderr, err)
	}
	if !printCompare(stdout, compareReports(ra, rb)) {
		return 1
	}
	return 0
}

// commit names the tree being measured; a checkout without git metadata
// (the driver's) reports "unknown".
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
