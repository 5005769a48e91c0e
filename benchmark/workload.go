package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"tind/internal/datagen"
	"tind/internal/ingest"
	"tind/internal/wal"
)

// workloadDef is one traffic mix against one serving tier. Every workload
// drives the same five read phases from the same seeded request stream,
// so a difference between two workloads is the tier's (or the writer's),
// never the requests'.
type workloadDef struct {
	Name   string
	Why    string
	tier   string
	ingest bool // an open-loop edit feed runs beside every read phase
	// suiteOnly keeps a workload out of BENCHMARK.json: the driver's time
	// cap (4 + 22 runs per listed workload in 3 420 s) pays for three
	// workloads of 30 measured seconds, and the fourth is a control that
	// only attribution needs.
	suiteOnly bool
}

var workloads = []workloadDef{
	{Name: "mono", tier: tierMono,
		Why: "one tindserve process: engine plus HTTP, admission and tracing; the floor every other tier is compared to"},
	{Name: "router", tier: tierRouter,
		Why: "2 shard servers behind a -router process: the gap to mono is wire, scatter and merge; the slowest leg sets latency"},
	{Name: "shards_ingest", tier: tierShardsWAL, ingest: true,
		Why: "-shards 4 with -wal: the same reads beside an open-loop edit feed; WAL fsync, apply locks, reslices and snapshots land on the readers"},
	{Name: "shards", tier: tierShards, suiteOnly: true,
		Why: "tindserve -shards 4 without a writer: the control that splits shards_ingest's gap to mono into internal/shard and the write path"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// phase is one op class's closed-loop slice of every round.
type phase struct {
	name  string
	ops   []string // the op classes its requests belong to
	share float64  // of a round's nominal length
	gen   func(s *queryStream, i int) request
	// saturate runs the slice with every reader (a throughput measurement);
	// otherwise one caller sends at a time (a latency measurement).
	saturate bool
}

// Latency is measured one request at a time and throughput with nproc
// callers, in separate phases. With nproc callers on an nproc-core box
// that also runs the servers, every request queues behind another and the
// median is the scheduler's coin flip: two concurrent top-k queries finish
// anywhere between 1.5× and 2× one query's time (measured: ±14 % from run
// to run through the router, against ±4 % for one caller).
//
// The shares buy each class the samples its percentile needs in 30 s: the
// point mix ≥ 1 500 reverse queries for a p95 (report.go: why not the p99);
// top-k, whose latency varies threefold with the query attribute and costs
// ~0.35 s a query, most of the time; relaxed queries are slow but all
// alike, so few suffice.
var phases = []phase{
	{name: "point", ops: []string{opSearch, opReverse}, share: 0.26, gen: (*queryStream).point},
	{name: "load", ops: []string{opSearch, opReverse}, share: 0.14, gen: (*queryStream).point, saturate: true},
	{name: "topk", ops: []string{opTopK}, share: 0.40, gen: (*queryStream).topk},
	{name: "relaxed", ops: []string{opRelaxed}, share: 0.10, gen: (*queryStream).relaxed},
	{name: "batch", ops: []string{opBatch}, share: 0.10, gen: (*queryStream).batch},
}

// roundLength is the nominal length of one pass over the phases. The box
// drifts between faster and slower spells lasting seconds (the same search
// query's median moves ±10 % from one 3 s window to the next), and a
// reslice or snapshot on the ingest workload takes about as long. Rounds
// this short make every phase sample every spell, so an episode touches a
// share of each metric instead of owning one. A slice always finishes the
// request it started, so a round is about one top-k query, one relaxed
// query, a few batches and a hundred-odd point queries.
const roundLength = 500 * time.Millisecond

// warmupShare of the run's seconds (at most warmupMax) runs the same
// rounds unmeasured before the measured window opens.
const (
	warmupShare = 0.1
	warmupMax   = 3 * time.Second
)

// The open-loop writer's schedule: ingestRate batches a second of
// appendsPerBatch appends each (inputs.go), 320 appends a second. The feed
// visits the attributes in a seeded order, so 4 000 distinct attributes —
// half the corpus, the server's reslice trigger — are dirty after 12.5 s
// and again after 25 s, and a snapshot (every 4 096 applied records) falls
// due at about the same times: two of each inside every 30 s run, whichever
// phase they land on.
const ingestRate = 40

// Answers retained per op class for verification (see verify.go). A
// set check is ~30 ms of brute force over the 8 000 attributes and a top-k
// check ~275 ms (nothing exits early below the k-th violation), and the
// driver's time cap leaves a run about 3 s of it on two cores.
var verifyCount = map[string]int{
	opSearch: 24, opReverse: 24, opRelaxed: 16, opTopK: 12,
	opBatch: 1, // one 32-entry batch, every entry checked
}

// On the ingest workload nothing measured can be checked (the dataset
// moved under it); the sample is asked again after the feed drains, and
// there the heavy classes cost server time as well.
var verifyCountAfterDrain = map[string]int{
	opSearch: 24, opReverse: 24, opRelaxed: 4, opTopK: 4, opBatch: 1,
}

// runConfig is one invocation of one workload.
type runConfig struct {
	workload workloadDef
	seed     int64
	seconds  float64
	trace    bool
	// inProcess adds the in-process layer pass to a traced run. The pass
	// does not depend on the tier, so the suite runs it once.
	inProcess bool
	attrs     int
	horizon   int
	// boots is how many times the tier is booted; setup_s is the median and
	// the last boot serves the measurement.
	boots   int
	clients int
	bin     string // tindserve binary
	workDir string // scratch for corpus, WAL, snapshot, logs
	outDir  string // trace-<workload>.json lands here
	log     io.Writer
}

// runWorkload executes one run: generate inputs from the seed, boot the
// tier, drive the phases, verify answers, and report. The untraced run
// yields the end-to-end metrics; the traced run yields the per-layer
// ones (client spans around every call, /proc accounting, then an
// in-process pass over the same corpus and query stream).
func runWorkload(cfg runConfig) (*runResult, error) {
	res := &runResult{Workload: cfg.workload.Name, Seed: cfg.seed, Traced: cfg.trace,
		Correct: true, Metrics: map[string]value{}, Samples: map[string]int{}, Verified: map[string]int{}}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	lp := &layerPass{tr: tr, res: res}

	start := time.Now()
	t0 := start
	corpus, err := generateCorpus(cfg.attrs, cfg.horizon)
	if err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	lp.record("datagen.generate_s", "s", time.Since(t0).Seconds())
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	corpusPath := filepath.Join(cfg.workDir, "corpus.tind")
	t0 = time.Now()
	size, err := writeCorpus(corpus.Dataset, corpusPath)
	if err != nil {
		return nil, err
	}
	lp.record("persist.write_s", "s", time.Since(t0).Seconds())
	lp.record("persist.bytes_per_attr", "B", float64(size)/float64(corpus.Dataset.Len()))
	stream := newQueryStream(cfg.seed, corpus.Dataset.Len())
	cfg.stage("inputs", start)

	// Set-up: boot the tier several times, keep the median, serve from the
	// last boot. Each boot gets a fresh directory so no WAL carries over.
	var setups []float64
	var dep *deployment
	t0 = time.Now()
	for i := 0; i < cfg.boots; i++ {
		if dep != nil {
			dep.stop()
		}
		dep, err = deploy(cfg.bin, cfg.workload.tier, corpusPath, filepath.Join(cfg.workDir, fmt.Sprintf("boot%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, dep.setupS)
	}
	defer dep.stop()
	res.set("setup_s", "s", median(setups))
	cfg.stage("set-up", t0)

	if cfg.trace {
		err = runTraced(cfg, res, dep, corpus, corpusPath, stream, tr, lp)
	} else {
		err = runUntraced(cfg, res, dep, corpus, stream)
	}
	if err != nil {
		return nil, err
	}
	if res.Attempted > 0 {
		res.set("failed_ratio", "ratio", float64(res.Failed)/float64(res.Attempted))
	}
	return res, nil
}

// stage logs how long a step of the run took, so a run that nears the
// time cap shows where the time went.
func (cfg runConfig) stage(name string, since time.Time) {
	fmt.Fprintf(cfg.log, "benchmark: %-14s %-22s %6.2fs\n", cfg.workload.Name, name, time.Since(since).Seconds())
}

// readers is the closed-loop client count: nproc, minus one when the
// open-loop writer needs a connection of its own, so the generator never
// holds more than nproc connections.
func (cfg runConfig) readers() int {
	if cfg.workload.ingest {
		return max(1, cfg.clients-1)
	}
	return cfg.clients
}

// tally books a slice's calls into the run's attempted/failed counts.
func (r *runResult) tally(name string, ss []sample) {
	att, failed, _ := counts(ss)
	r.Attempted += att
	r.Failed += failed
	if failed > 0 {
		r.fail("phase %s: %d of %d calls failed (non-200, partial or transport error)", name, failed, att)
		for _, s := range ss {
			if !s.ok {
				r.fail("  %s", s.why)
			}
		}
	}
}

// writer is the open-loop edit feed of an ingest workload, running beside
// the read phases on a connection of its own.
type writer struct {
	gen  *loadgen
	stop chan struct{}
	done chan []sample
}

func startWriter(cfg runConfig, dep *deployment, corpus *datagen.Corpus, tr *tracer) *writer {
	w := &writer{gen: newLoadgen(dep.front.url(), 1, tr), stop: make(chan struct{}),
		done: make(chan []sample, 1)} // one send, so the feed never blocks on exit
	feed := newIngestFeed(cfg.seed, corpus.Dataset)
	go func() { w.done <- w.gen.openLoop(ingestRate, feed.batch, w.stop) }()
	return w
}

// ackStats are the write path's end-to-end numbers.
type ackStats struct {
	p50, p99 float64 // ms from due time to durable 200
	lateP99  float64 // how late the generator itself sent, ms
	n        int
}

// finish stops the feed, books its calls, summarises the acknowledgement
// latencies of the batches due from begin on (the earlier ones were
// warm-up), and waits until the server has applied every acknowledged
// delta.
func (w *writer) finish(res *runResult, dep *deployment, begin time.Time) (ackStats, error) {
	close(w.stop)
	all := <-w.done
	w.gen.close()
	res.tally("ingest", all)
	var measured []sample
	var late []float64
	for _, s := range all {
		if s.due.Before(begin) {
			continue
		}
		measured = append(measured, s)
		late = append(late, float64(s.start.Sub(s.due))/float64(time.Millisecond))
	}
	acks := latencies(measured, opIngest)
	sort.Float64s(late)
	st := ackStats{p50: percentile(acks, 0.50), p99: percentile(acks, 0.99), lateP99: percentile(late, 0.99), n: len(acks)}
	if err := waitDrained(dep.front.url(), 15*time.Second); err != nil {
		return st, fmt.Errorf("%w\n%s", err, dep.front.logTail())
	}
	return st, nil
}

// driven is what the read phases produced over one measured window.
type driven struct {
	begin    time.Time  // when the measured window opened
	samples  [][]sample // per phase, pooled over the measured rounds
	loadWall time.Duration
	rounds   int
	answers  []answer // retained for verification, at most keep[op] per op
}

// drive runs the phases in interleaved rounds for warm (unmeasured) plus
// dur, and pools each phase's samples over the measured rounds. Each
// phase draws its requests from the stream in order. The rounds take
// turns through gens (the traced run alternates a plain and a span-
// recording generator). keep caps the answers retained per op class.
func (cfg runConfig) drive(gens []*loadgen, dep *deployment, stream *queryStream, res *runResult,
	warm, dur time.Duration, keep map[string]int) (*driven, error) {
	d := &driven{samples: make([][]sample, len(phases))}
	offset := make([]int, len(phases)) // where each phase's stream resumes
	kept := map[string]int{}
	d.begin = time.Now().Add(warm)
	end := d.begin.Add(dur)
	for round := 0; time.Now().Before(end); round++ {
		gen := gens[round%len(gens)]
		measured := !time.Now().Before(d.begin)
		for pi, ph := range phases {
			clients := 1
			if ph.saturate {
				clients = cfg.readers()
			}
			slice := time.Duration(ph.share * float64(roundLength))
			wanted := false // does verification still want answers of this phase?
			for _, op := range ph.ops {
				wanted = wanted || (measured && !ph.saturate && kept[op] < keep[op])
			}
			pr := gen.closedLoop(clients, slice, offset[pi], func(i int) request { return ph.gen(stream, i) }, wanted)
			offset[pi] += pr.issued
			if !measured {
				continue
			}
			res.tally(ph.name, pr.samples)
			d.samples[pi] = append(d.samples[pi], pr.samples...)
			if ph.saturate {
				d.loadWall += pr.wall
			}
			for _, a := range pr.answers {
				if kept[a.req.op] < keep[a.req.op] {
					kept[a.req.op]++
					d.answers = append(d.answers, a)
				}
			}
		}
		if measured {
			d.rounds++
		}
		if err := dep.checkAlive(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// phaseSamples returns the pooled samples of the named phase.
func (d *driven) phaseSamples(name string) []sample {
	for pi, ph := range phases {
		if ph.name == name {
			return d.samples[pi]
		}
	}
	return nil
}

// warmup is the unmeasured head of a window of the given length.
func warmup(seconds float64) time.Duration {
	return min(time.Duration(seconds*warmupShare*float64(time.Second)), warmupMax)
}

func runUntraced(cfg runConfig, res *runResult, dep *deployment, corpus *datagen.Corpus, stream *queryStream) error {
	gen := newLoadgen(dep.front.url(), cfg.readers(), nil)
	defer gen.close()

	// The edit feed starts before the warm-up and runs beside every read
	// phase. What is answered while the dataset moves cannot be checked
	// against any one state, so nothing is retained then.
	keep := verifyCount
	var wr *writer
	if cfg.workload.ingest {
		wr = startWriter(cfg, dep, corpus, nil)
		keep = nil
	}

	t0 := time.Now()
	d, err := cfg.drive([]*loadgen{gen}, dep, stream, res, warmup(cfg.seconds), time.Duration(cfg.seconds*float64(time.Second)), keep)
	if err != nil {
		return err
	}
	cfg.stage(fmt.Sprintf("%d rounds", d.rounds), t0)

	// latency reports percentiles of one op's pooled samples as <op>_pNN_ms.
	latency := func(op string, ss []sample, pcts ...int) int {
		lat := latencies(ss, op)
		for _, pct := range pcts {
			name := fmt.Sprintf("%s_p%d_ms", op, pct)
			res.set(name, "ms", percentile(lat, float64(pct)/100))
			res.Samples[name] = len(lat)
		}
		return len(lat)
	}
	point := d.phaseSamples("point")
	latency(opSearch, point, 50, 95, 99)
	latency(opReverse, point, 50, 95, 99)
	load := d.phaseSamples("load")
	ok := len(latencies(load, opSearch)) + len(latencies(load, opReverse))
	res.set("point_qps", "1/s", ratio(float64(ok), d.loadWall.Seconds()))
	res.Samples["point_qps"] = ok
	latency(opTopK, d.phaseSamples("topk"), 50, 90)
	latency(opRelaxed, d.phaseSamples("relaxed"), 50)
	latency(opBatch, d.phaseSamples("batch"), 50)

	answers := d.answers
	if wr != nil {
		// Every read here ran beside the writer, so the point tail is the
		// "mixed" tail: the same number under the name that says so.
		if v, ok := res.Metrics["search_p99_ms"]; ok {
			res.set("search_mixed_p99_ms", "ms", v.Value)
			res.Samples["search_mixed_p99_ms"] = res.Samples["search_p99_ms"]
		}
		t0 = time.Now()
		acks, err := wr.finish(res, dep, d.begin)
		if err != nil {
			return err
		}
		res.set("ingest_ack_p50_ms", "ms", acks.p50)
		res.set("ingest_ack_p99_ms", "ms", acks.p99)
		res.Samples["ingest_ack_p50_ms"], res.Samples["ingest_ack_p99_ms"] = acks.n, acks.n
		res.set("gen_late_p99_ms", "ms", acks.lateP99)
		st, err := fetchStats(dep.front.url())
		if err != nil {
			return err
		}
		res.set("ingest_applies", "count", st.applies())
		res.set("ingest_reslices", "count", st.reslices())
		// Replay the server's WAL onto our copy and ask a fresh sample.
		if err := replayWAL(corpus, dep.wal, cfg.workDir); err != nil {
			return err
		}
		answers = cfg.askAfterDrain(gen, stream, res)
		cfg.stage("drain, replay, re-ask", t0)
	}

	res.set("peak_rss_mb", "MB", dep.peakRSSMB())
	t0 = time.Now()
	verifyAnswers(res, corpus, answers)
	cfg.stage(fmt.Sprintf("verified %d answers", len(answers)), t0)
	return nil
}

// askAfterDrain asks an un-timed sample of every op class from a part of
// the stream the phases did not reach, once the dataset stands still.
func (cfg runConfig) askAfterDrain(gen *loadgen, stream *queryStream, res *runResult) []answer {
	want := verifyCountAfterDrain
	var answers []answer
	for _, ph := range phases {
		if ph.saturate {
			continue
		}
		need, total := map[string]int{}, 0
		for _, op := range ph.ops {
			need[op] = want[op]
			total += want[op]
		}
		for i := streamLen / 2; total > 0; i++ {
			r := ph.gen(stream, i)
			if need[r.op] == 0 {
				continue
			}
			need[r.op]--
			total--
			s, body := gen.do(r, time.Time{})
			res.Attempted++
			if !s.ok {
				res.Failed++
				res.fail("post-drain %s", s.why)
				continue
			}
			answers = append(answers, answer{req: r, body: body})
		}
	}
	return answers
}

// verifyAnswers brute-forces the retained answers; each checked answer
// counts as attempted, each mismatch as failed.
func verifyAnswers(res *runResult, corpus *datagen.Corpus, answers []answer) {
	errs := newVerifier(corpus.Dataset).checkAll(answers)
	res.Attempted += len(answers)
	res.Failed += len(errs)
	for _, e := range errs {
		res.fail("wrong answer: %v", e)
	}
	for _, a := range answers {
		res.Verified[a.req.op]++
	}
}

// serverStats is the slice of GET /stats the benchmark reads.
type serverStats struct {
	Coverage float64 `json:"slice_pruning_coverage"`
	Ingest   *struct {
		Pending int   `json:"pending_records"`
		Applies int64 `json:"applies"`
	} `json:"ingest"`
	Reslice *struct {
		Reslices int64 `json:"reslices"`
	} `json:"reslice"`
}

func (st *serverStats) applies() float64 {
	if st.Ingest == nil {
		return 0
	}
	return float64(st.Ingest.Applies)
}

func (st *serverStats) reslices() float64 {
	if st.Reslice == nil {
		return 0
	}
	return float64(st.Reslice.Reslices)
}

func fetchStats(base string) (*serverStats, error) {
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/stats: %s", resp.Status)
	}
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	return &st, nil
}

// waitDrained polls /stats until every acknowledged delta is applied.
func waitDrained(base string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		st, err := fetchStats(base)
		if err != nil {
			return err
		}
		if st.Ingest != nil && st.Ingest.Pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ingest did not drain within %v", limit)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// replayWAL folds the server's acknowledged deltas into the benchmark's
// copy of the dataset. It works on a copy of the log: wal.Open may
// truncate a torn tail, which must never happen to a live server's file.
func replayWAL(corpus *datagen.Corpus, walPath, workDir string) error {
	buf, err := os.ReadFile(walPath)
	if err != nil {
		return err
	}
	cp := filepath.Join(workDir, "wal-copy")
	if err := os.WriteFile(cp, buf, 0o644); err != nil {
		return err
	}
	log, err := wal.Open(cp, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return fmt.Errorf("opening WAL copy: %w", err)
	}
	defer log.Close()
	if _, _, err := ingest.Replay(corpus.Dataset, log, 0, nil); err != nil {
		return fmt.Errorf("replaying WAL: %w", err)
	}
	return nil
}

func nproc() int { return runtime.NumCPU() }
