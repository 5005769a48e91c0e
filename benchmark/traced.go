package main

import (
	"math"
	"path/filepath"
	"time"

	"tind/internal/datagen"
)

// Shares of the run's seconds spent on HTTP in the traced run; the rest
// of the budget goes to the in-process pass.
const (
	tracedShare    = 0.42 // the untraced run's rounds, every other one with client spans
	tracedCPUShare = 0.08 // point queries alone, for CPU per query
)

// runTraced produces the per-layer metrics: client spans around every
// HTTP call into the real processes (with the body's elapsed_ms as the
// engine child), /proc CPU accounting per process, the servers' own
// /stats, and then the in-process pass over the same corpus and stream.
func runTraced(cfg runConfig, res *runResult, dep *deployment, corpus *datagen.Corpus,
	corpusPath string, stream *queryStream, tr *tracer, lp *layerPass) error {
	// The rounds alternate between a plain generator and one that records
	// spans, on the same connections: the ratio of their medians is what
	// looking costs, taken over the same stretch of time.
	plain := newLoadgen(dep.front.url(), cfg.readers(), nil)
	defer plain.close()
	traced := &loadgen{base: plain.base, client: plain.client, tr: tr}

	// Answers given beside a writer have no single dataset state to be
	// checked against; the untraced run verifies that workload after the
	// feed drains.
	keep := verifyCount
	var wr *writer
	if cfg.workload.ingest {
		wr = startWriter(cfg, dep, corpus, tr)
		keep = nil
	}

	seconds := func(share float64) time.Duration {
		return time.Duration(cfg.seconds * share * float64(time.Second))
	}
	d, err := cfg.drive([]*loadgen{traced, plain}, dep, stream, res, warmup(cfg.seconds*tracedShare), seconds(tracedShare), keep)
	if err != nil {
		return err
	}
	// Server CPU per point query, from a stretch of point queries alone so
	// that the heavy classes' CPU is not in it.
	cpu0 := dep.cpuMS()
	alone := traced.closedLoop(1, seconds(tracedCPUShare), 0, stream.point, false)
	res.tally("point (alone)", alone.samples)
	var cpuAll, cpuFront float64
	for i, c := range dep.cpuMS() {
		cpuAll += c - cpu0[i]
		if dep.procs[i] == dep.front {
			cpuFront = c - cpu0[i]
		}
	}
	_, aloneFailed, _ := counts(alone.samples)

	// Only the span-recording generator reads the engine's time out of the
	// body, which tells its samples from the plain ones.
	var point, bare []sample
	for _, s := range d.phaseSamples("point") {
		if math.IsNaN(s.engineMS) {
			bare = append(bare, s)
		} else {
			point = append(point, s)
		}
	}
	overhead := func(op string) float64 {
		var xs []float64
		for _, s := range point {
			if s.op == op && s.ok {
				xs = append(xs, (s.latencyMS()-s.engineMS)*1000)
			}
		}
		return median(xs)
	}
	lp.record("serve.search_overhead_us", "us", overhead(opSearch))
	lp.record("serve.reverse_overhead_us", "us", overhead(opReverse))
	var sizes []float64
	for _, s := range point {
		if s.ok && s.op == opSearch {
			sizes = append(sizes, float64(s.bytes))
		}
	}
	lp.record("serve.response_bytes", "B", median(sizes))
	// The point p99s are too unsteady for a bound (report.go); the ledger
	// keeps them, over the traced and the plain rounds together.
	all := d.phaseSamples("point")
	lp.record("serve.search_p99_ms", "ms", zeroNaN(percentile(latencies(all, opSearch), 0.99)))
	lp.record("serve.reverse_p99_ms", "ms", zeroNaN(percentile(latencies(all, opReverse), 0.99)))
	var att, shed int
	for _, ss := range d.samples {
		a, _, sh := counts(ss)
		att, shed = att+a, shed+sh
	}
	lp.record("serve.shed_ratio", "ratio", ratio(float64(shed), float64(att)))
	lp.record("serve.cpu_ms_per_query", "ms", ratio(cpuAll, float64(len(alone.samples)-aloneFailed)))
	share := 0.0
	if cfg.workload.tier == tierRouter {
		share = ratio(cpuFront, cpuAll)
	}
	lp.record("router.proc_cpu_share", "ratio", share)
	p50 := func(ss []sample) float64 { return percentile(latencies(ss, opSearch), 0.5) }
	lp.record("bench.trace_overhead_pct", "%", zeroNaN((p50(point)/p50(bare)-1)*100))

	// Write-path numbers exist only where there is a write path.
	var acks ackStats
	if wr != nil {
		if acks, err = wr.finish(res, dep, d.begin); err != nil {
			return err
		}
	} else {
		verifyAnswers(res, corpus, d.answers)
	}
	st, err := fetchStats(dep.front.url())
	if err != nil {
		return err
	}
	lp.record("serve.ingest_ack_p50_ms", "ms", zeroNaN(acks.p50))
	lp.record("serve.ingest_ack_p99_ms", "ms", zeroNaN(acks.p99))
	lp.record("serve.applies", "count", st.applies())
	lp.record("serve.reslices", "count", st.reslices())
	lp.record("serve.coverage_end", "ratio", st.Coverage)

	// The servers are done; free the cores for the in-process pass.
	dep.stop()
	if cfg.inProcess {
		if err := lp.inProcess(cfg, corpus, corpusPath, stream); err != nil {
			return err
		}
	}
	return tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload.Name+".json"))
}

func zeroNaN(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
