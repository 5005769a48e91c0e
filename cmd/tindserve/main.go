// Command tindserve exposes tIND search over HTTP — the interactive
// exploration scenario of the paper's introduction (suggesting joinable
// tables to a user browsing one) as a small JSON service, hardened for
// unsupervised operation: per-request query deadlines, load shedding,
// panic recovery, liveness/readiness probes and graceful drain.
//
// Usage:
//
//	tindserve -corpus corpus.tind -addr :8080
//	tindserve -attrs 5000                      # synthetic corpus
//	tindserve -query-timeout 2s -max-in-flight 32
//
// Endpoints:
//
//	GET /search?attr=<id|page-substring>&eps=3&delta=7   Q ⊆ A results
//	GET /reverse?attr=...&eps=3&delta=7                  A ⊆ Q results
//	GET /topk?attr=...&k=10&delta=7                      ranked by violation
//	POST /query/batch                                    many queries, one batched execution
//	GET /explain?lhs=...&rhs=...&delta=7                 violated intervals
//	GET /attr?attr=...                                   attribute details
//	GET /stats                                           corpus, index and ingestion stats
//	POST /ingest                                         live history deltas (with -wal)
//	GET /metrics                                         Prometheus text format 0.0.4
//	GET /debug/events                                    wide-event ring: one structured event per query
//	GET /debug/pprof/*                                   profiling (only with -pprof)
//	GET /healthz                                         process liveness
//	GET /readyz                                          200 once the index is built
//
// The index builds in the background: the server binds and answers
// /healthz immediately, query endpoints shed with 503 + Retry-After
// until /readyz turns 200. Queries run under a deadline derived from
// -query-timeout and abort mid-validation when it expires (504) or when
// the client disconnects. A weighted concurrency limiter sheds excess
// load with 503 + Retry-After instead of queueing. SIGINT/SIGTERM drain
// in-flight requests for up to -drain-timeout before exiting.
//
// Live ingestion: with -wal the server accepts history deltas on
// POST /ingest. A delta batch is validated, appended to the write-ahead
// log and fsynced *before* the 200 — acknowledged deltas survive a kill
// -9. Applied batches fold into the serving index incrementally (shard-
// local refresh) on a dirty-count/dirty-age trigger; between
// acknowledgement and apply the server is boundedly stale, observable
// via /stats (pending records, oldest pending age, WAL lag) and bounded
// by -max-staleness: /readyz turns 503 "degraded" when the oldest
// unapplied delta exceeds it. With -snapshot the ingest loop
// periodically writes an atomic snapshot file so a restart replays
// only the WAL suffix past the snapshot's offset; during that replay
// /readyz reports structured progress. On startup the server prefers
// the snapshot (falling back to -corpus or the synthetic generator) and
// replays the WAL before building the index, so recovered answers match
// a from-scratch rebuild exactly.
//
// Distributed serving: -shard-server -shard-id I -shards N turns the
// process into one shard of an N-way partition, serving scatter legs on
// /shard/* (behind the same readiness and shedding middleware) instead
// of the public query endpoints; -router "urls;urls" turns it into
// a scatter-gather router over those servers — the same query
// endpoints, answered by fanning out to the shards and merging exactly
// like the in-process sharded engine, with per-leg deadlines
// (-leg-timeout) and bounded replica retries (-leg-retries). A dead
// shard degrades queries to 200 responses marked "partial": true (never
// a silently-shrunken "complete" answer, never a 500) and flips /readyz
// to degraded until a probe reaches the shard again. Both modes are
// read-only (-wal is rejected).
//
// Observability: /metrics serves the process-wide obs registry (query
// phase latencies, candidate funnels, Bloom fill ratios, HTTP counters,
// runtime gauges) in the Prometheus text format; /healthz reports
// p50/p95/p99 query latency since start. Every query and batch records
// one wide event (phase timings, per-shard attribution, candidate
// funnel, error class) into a ring served at /debug/events, filterable
// by min_duration — so a latency spike's histogram bucket leads
// straight to the events that filled it. Error and latency ratios are
// the scraper's to compute, from tind_http_requests_total{code} and
// tind_http_query_seconds_bucket. Logs are structured (log/slog); every
// admitted query gets an ID, echoed in the X-Query-ID response header
// and carried by its wide event. -pprof opt-in exposes the standard
// /debug/pprof endpoints.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/ingest"
	"tind/internal/obs"
	"tind/internal/persist"
	"tind/internal/router"
	"tind/internal/sem"
	"tind/internal/shard"
	"tind/internal/timeline"
	"tind/internal/wal"
)

// HTTP-level instruments. The query-internal metrics (phase latencies,
// candidate funnels) live in internal/index; these cover what the index
// cannot see: shedding, status codes and handler wall time per endpoint.
var (
	mHTTPInFlight = obs.Default().Gauge("tind_http_in_flight",
		"Weighted in-flight query load admitted by the limiter.")
	mHTTPShed = func(reason string) *obs.Counter {
		return obs.Default().Counter("tind_http_shed_total",
			"Requests shed with 503, by reason.", obs.L("reason", reason))
	}
	// mQuerySeconds aggregates admitted query latency across endpoints;
	// /healthz derives its p50/p95/p99 from it.
	mQuerySeconds = obs.Default().Histogram("tind_http_query_seconds",
		"Wall time of admitted query requests, all endpoints combined.",
		obs.LatencyBuckets)
)

func mHTTPRequests(endpoint string, code int) *obs.Counter {
	return obs.Default().Counter("tind_http_requests_total",
		"Query requests served, by endpoint and status code.",
		obs.L("endpoint", endpoint), obs.L("code", strconv.Itoa(code)))
}

func mHTTPSeconds(endpoint string) *obs.Histogram {
	return obs.Default().Histogram("tind_http_request_seconds",
		"Handler wall time per query endpoint.", obs.LatencyBuckets,
		obs.L("endpoint", endpoint))
}

// topKWeight is the limiter weight of /topk requests. One /topk is one
// exact scan of every attribute. Over 8 000 attributes its median is ≈ 5
// plain searches end to end (1.2 against 0.24 ms), but a plain search's
// time is mostly HTTP, and the scan itself, ≈ 0.6 ms in process, is
// about two plain searches served end to end: it is charged like two.
const topKWeight = 2

// batchWeight caps the limiter weight of a batch — POST /query/batch or a
// /shard/batch leg — which is charged one per entry up to it (see
// admitted.Admit). A batch runs many sub-queries in one call, but it saves
// each of them the HTTP round trip that dominates a plain search, so a
// large batch is charged like a few plain searches rather than per
// sub-query; a one-entry leg is a plain search and is charged like one.
const batchWeight = 4

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.corpus, "corpus", "", "binary dataset to serve (default: synthetic)")
	flag.IntVar(&cfg.attrs, "attrs", 2000, "synthetic corpus size")
	flag.IntVar(&cfg.horizon, "horizon", 1500, "synthetic corpus horizon (days)")
	flag.Int64Var(&cfg.seed, "seed", 1, "random seed")
	flag.IntVar(&cfg.shards, "shards", 1, "serve through a sharded scatter-gather index with this many shards (1 = monolithic)")
	flag.BoolVar(&cfg.shardServer, "shard-server", false, "serve one shard of an N-way partition over the /shard RPC surface (with -shards N and -shard-id)")
	flag.IntVar(&cfg.shardID, "shard-id", 0, "which shard this server owns (with -shard-server)")
	flag.StringVar(&cfg.router, "router", "", "scatter-gather router over shard servers: shard URL groups separated by ';', replica URLs within a shard by ',' (e.g. \"http://a:8081,http://a2:8081;http://b:8081\")")
	flag.DurationVar(&cfg.legTimeout, "leg-timeout", 5*time.Second, "router: per-shard scatter-leg deadline (0 = none)")
	flag.IntVar(&cfg.legRetries, "leg-retries", 1, "router: replica retries per scatter leg beyond the first attempt")
	flag.DurationVar(&cfg.queryTimeout, "query-timeout", 10*time.Second, "per-request query deadline (0 = none)")
	flag.Int64Var(&cfg.maxInFlight, "max-in-flight", 0, "concurrent query weight admitted before shedding with 503 (0 = 4×GOMAXPROCS)")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 15*time.Second, "grace period for in-flight requests on SIGINT/SIGTERM")
	flag.BoolVar(&cfg.pprof, "pprof", false, "expose /debug/pprof endpoints (off by default: profiling leaks internals)")
	flag.StringVar(&cfg.wal, "wal", "", "write-ahead log path: enables POST /ingest and startup WAL replay")
	flag.StringVar(&cfg.snapshot, "snapshot", "", "snapshot file: loaded (over -corpus) at startup, written periodically by the ingest loop")
	flag.IntVar(&cfg.snapshotEvery, "snapshot-every", 4096, "applied records between snapshots (0 = never snapshot)")
	flag.DurationVar(&cfg.maxStaleness, "max-staleness", 30*time.Second, "flip /readyz to degraded when the oldest unapplied delta exceeds this (0 = never)")
	flag.IntVar(&cfg.maxDirty, "ingest-max-dirty", 256, "apply pending deltas once this many records queue")
	flag.DurationVar(&cfg.maxDirtyAge, "ingest-max-dirty-age", 2*time.Second, "apply pending deltas once the oldest queues this long")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(logger)

	// Contradictory modes exit here, before the port is bound: a process
	// that answers /healthz while its load fails in the background looks
	// alive to whatever started it.
	if err := cfg.validateModes(); err != nil {
		logger.Error("flags", "err", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		logger.Error("listen", "err", err)
		os.Exit(1)
	}
	logger.Info("listening, index building in background", "addr", ln.Addr().String())

	load := func(rp *replayProgress) (*corpus, error) { return loadServing(cfg, rp) }
	if err := run(ctx, cfg, ln, load); err != nil {
		logger.Error("serve", "err", err)
		os.Exit(1)
	}
	logger.Info("drained, bye")
}

// config is the service's command line, one field per flag, bound in
// place by main: the robustness and observability knobs the server reads,
// and the corpus source, engine layout and live-ingestion knobs
// loadServing reads.
type config struct {
	addr string

	corpus  string
	attrs   int
	horizon int
	seed    int64
	shards  int
	// shardServer serves shard shardID of the shards-way partition over
	// the /shard RPC surface instead of building a full serving engine.
	shardServer bool
	shardID     int
	// router scatter-gathers over remote shard servers: the -router
	// topology spec, with the per-leg deadline and replica retry budget.
	router     string
	legTimeout time.Duration
	legRetries int

	queryTimeout time.Duration
	maxInFlight  int64
	drainTimeout time.Duration
	pprof        bool

	wal           string
	snapshot      string
	snapshotEvery int
	// maxStaleness flips /readyz to degraded when the oldest acknowledged
	// but unapplied delta is older than this; 0 disables the check.
	maxStaleness time.Duration
	maxDirty     int
	maxDirtyAge  time.Duration
}

// run serves on ln until ctx is done (SIGINT/SIGTERM in production),
// then drains in-flight requests for up to cfg.drainTimeout. The corpus
// loads (and the WAL replays) in a background goroutine so the process
// answers health probes from the first moment; a load failure tears the
// server down. After the drain, the ingester flushes and the WAL closes
// so acknowledged deltas are applied or at minimum durable.
func run(ctx context.Context, cfg config, ln net.Listener, load func(rp *replayProgress) (*corpus, error)) error {
	s := newServer(cfg)

	// Periodic runtime sampling keeps goroutine count, heap watermark and
	// GC pauses on /metrics for the whole life of the process.
	stopSampler := obs.NewRuntimeSampler(obs.Default()).Start(10 * time.Second)
	defer stopSampler()

	writeTimeout := time.Minute
	if cfg.queryTimeout > 0 {
		// Leave headroom beyond the query deadline so a timed-out query
		// still delivers its JSON 504 before the connection is cut.
		writeTimeout = cfg.queryTimeout + 10*time.Second
	}
	httpSrv := &http.Server{
		Handler:           s.routes(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	errCh := make(chan error, 2)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	go func() {
		start := time.Now()
		c, err := load(&s.replay)
		if err != nil {
			errCh <- fmt.Errorf("corpus load: %w", err)
			return
		}
		s.install(c)
		slog.Info("ready", "attributes", c.ds.Len(),
			"build_time", time.Since(start).Round(time.Millisecond),
			"ingest", c.ing != nil)
	}()

	select {
	case err := <-errCh:
		httpSrv.Close()
		s.closeServing()
		return err
	case <-ctx.Done():
	}

	slog.Info("shutdown requested, draining", "grace", cfg.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	err := httpSrv.Shutdown(drainCtx)
	if cerr := s.closeServing(); err == nil {
		err = cerr
	}
	if err != nil {
		httpSrv.Close()
		return fmt.Errorf("drain incomplete after %v: %w", cfg.drainTimeout, err)
	}
	return nil
}

// closeServing flushes the ingester and closes the WAL, if installed.
func (s *server) closeServing() error {
	c := s.corpus.Load()
	if c == nil || c.ing == nil {
		return nil
	}
	err := c.ing.Close()
	if c.wal != nil {
		if cerr := c.wal.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// queryIndex is the serving contract the handlers need: a lone query is
// a batch of one. The monolithic index.Index, the in-process
// shard.ShardedIndex and the router.Router satisfy it and serve the
// public query endpoints, so the mode flags swap the engine without
// touching a handler. A shard.Single (shard-server mode) satisfies it
// too, but answers for its own attributes only: that mode mounts /stats
// over it and the /shard RPC, not the query endpoints (see routes).
type queryIndex interface {
	QueryBatch(ctx context.Context, batch []index.BatchQuery, o index.BatchOptions) ([]index.Result, error)
	Stats() index.BuildStats
}

// partitioned is what every engine over a hash partition additionally
// exposes; /stats reports it.
type partitioned interface{ NumShards() int }

// remote is what an engine whose shards live in other processes
// additionally exposes: which shards were down as of the last contact,
// and an active probe. /stats and /readyz report them.
type remote interface {
	partitioned
	Degraded() []int
	Probe(ctx context.Context) []int
}

// validateModes rejects contradictory serving modes. It needs nothing
// but the flags, so main calls it before binding the port; loadServing
// calls it again for callers that assemble a config themselves.
func (cc config) validateModes() error {
	switch {
	case cc.shardServer && cc.router != "":
		return errors.New("-shard-server and -router are mutually exclusive")
	case (cc.shardServer || cc.router != "") && cc.wal != "":
		return errors.New("-wal live ingestion requires a full local engine; shard-server and router modes are read-only")
	case cc.shardServer && (cc.shards < 1 || cc.shardID < 0 || cc.shardID >= cc.shards):
		return fmt.Errorf("-shard-id %d out of range [0,%d)", cc.shardID, cc.shards)
	}
	return nil
}

// replayProgress publishes WAL-replay progress for /readyz while the
// corpus loads: total records to replay, records done, and the start
// time for a rate estimate.
type replayProgress struct {
	active    atomic.Bool
	total     atomic.Int64
	done      atomic.Int64
	startNano atomic.Int64
}

// loadDataset reads or generates the base dataset. The snapshot file —
// written by the ingest loop — wins over -corpus: it is the same corpus,
// further along the WAL. The returned offset is the WAL position the
// dataset already covers.
func loadDataset(cc config) (*history.Dataset, int64, error) {
	if cc.snapshot != "" {
		ds, off, err := persist.OpenSnapshot(cc.snapshot)
		if err == nil {
			return ds, off, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, 0, fmt.Errorf("snapshot: %w", err)
		}
		// No snapshot yet — first boot; fall through to the corpus.
	}
	if cc.corpus != "" {
		f, err := os.Open(cc.corpus)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		ds, err := persist.Read(f)
		return ds, 0, err
	}
	c, err := datagen.Generate(datagen.Config{
		Seed: cc.seed, Attributes: cc.attrs, Horizon: timeline.Time(cc.horizon),
	})
	if err != nil {
		return nil, 0, err
	}
	return c.Dataset, 0, nil
}

// loadServing assembles the serving state: dataset (snapshot, corpus or
// synthetic), WAL recovery replay, index build — the monolith by
// default, an N-shard partition with -shards N > 1 — and, with -wal,
// the live-ingestion write path. Two special modes replace the local
// engine: -shard-server builds and serves one shard of the partition,
// -router builds no index at all and scatter-gathers over remote shard
// servers. Both are read-only: live ingestion writes through an engine
// that owns the whole index, which neither mode has.
func loadServing(cc config, rp *replayProgress) (*corpus, error) {
	if err := cc.validateModes(); err != nil {
		return nil, err
	}
	ds, walOffset, err := loadDataset(cc)
	if err != nil {
		return nil, err
	}

	var log *wal.Log
	if cc.wal != "" {
		log, err = wal.Open(cc.wal, wal.Options{Sync: wal.SyncAlways})
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		total, err := log.CountFrom(walOffset)
		if err != nil {
			log.Close()
			return nil, fmt.Errorf("wal: %w", err)
		}
		if rp != nil && total > 0 {
			rp.total.Store(int64(total))
			rp.done.Store(0)
			rp.startNano.Store(time.Now().UnixNano())
			rp.active.Store(true)
			defer rp.active.Store(false)
		}
		if _, n, err := ingest.Replay(ds, log, walOffset, func(replayed int, _ int64) {
			if rp != nil {
				rp.done.Store(int64(replayed))
			}
		}); err != nil {
			log.Close()
			return nil, fmt.Errorf("wal replay: %w", err)
		} else if n > 0 {
			slog.Info("wal replayed", "records", n, "from_offset", walOffset)
		}
	}

	opt := index.DefaultOptions(ds.Horizon())
	opt.Reverse = true
	opt.Seed = cc.seed
	c := newCorpus(ds, nil)
	c.wal = log
	switch {
	case cc.shardServer:
		sg, err := shard.BuildSingle(ds, shard.Options{
			Shards: cc.shards, Seed: cc.seed, Index: shard.PartitionOptions(opt, cc.shards),
		}, cc.shardID)
		if err != nil {
			return nil, err
		}
		c.idx, c.shardH = sg, router.NewShardServer(sg).Handler()
		return c, nil
	case cc.router != "":
		topo, err := parseRouterSpec(cc.router)
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		rt, err := router.New(ctx, router.Options{
			Shards: topo, LegTimeout: cc.legTimeout, Retries: cc.legRetries,
		})
		if err != nil {
			return nil, fmt.Errorf("router: %w", err)
		}
		// The router resolves and renders against its own copy of the
		// corpus; a mismatch with the cluster's would silently answer for
		// the wrong attributes.
		if info := rt.Info(); info.Attributes != ds.Len() || info.Horizon != int64(ds.Horizon()) {
			return nil, fmt.Errorf("router: local corpus (%d attributes, horizon %d) does not match the cluster's (%d, %d) — start the router with the same corpus its shard servers serve",
				ds.Len(), ds.Horizon(), info.Attributes, info.Horizon)
		}
		c.idx = rt
		return c, nil
	}
	var eng liveEngine
	if cc.shards > 1 {
		sx, err := shard.Build(ds, shard.Options{
			Shards: cc.shards, Seed: cc.seed, Index: shard.PartitionOptions(opt, cc.shards),
		})
		if err != nil {
			closeLog(log)
			return nil, err
		}
		c.idx, eng = sx, sx
	} else {
		idx, err := index.Build(ds, opt)
		if err != nil {
			closeLog(log)
			return nil, err
		}
		c.idx, eng = idx, idx
	}

	if log != nil {
		iopt := ingest.Options{
			MaxDirty: cc.maxDirty, MaxDirtyAge: cc.maxDirtyAge,
		}
		if cc.snapshot != "" && cc.snapshotEvery > 0 {
			iopt.Snapshot = ingest.SnapshotConfig{Path: cc.snapshot, Every: cc.snapshotEvery}
		}
		c.ing = ingest.New(gaugedEngine{eng}, ds, log, iopt)
		c.ing.Start()
	}
	return c, nil
}

// liveEngine is a local engine live ingestion refreshes: the monolith or
// the in-process shard partition.
type liveEngine interface {
	ingest.Engine
	Stats() index.BuildStats
}

// gaugedEngine republishes the index state gauges after every refresh
// the ingester applies, keeping them current without a scrape reading
// the index.
type gaugedEngine struct{ liveEngine }

func (e gaugedEngine) RefreshWith(newHorizon timeline.Time, prepare func(ds *history.Dataset) ([]history.AttrID, error)) error {
	err := e.liveEngine.RefreshWith(newHorizon, prepare)
	index.PublishStats(e.Stats())
	return err
}

func closeLog(log *wal.Log) {
	if log != nil {
		log.Close()
	}
}

// parseRouterSpec parses the -router topology: shard URL groups
// separated by semicolons, replica URLs within a shard by commas. Group
// order is shard order — group i must be the servers started with
// -shard-id i (router.New verifies this against each server's
// /shard/info).
func parseRouterSpec(spec string) ([][]string, error) {
	var topo [][]string
	for i, group := range strings.Split(spec, ";") {
		var reps []string
		for _, u := range strings.Split(group, ",") {
			if u = strings.TrimSpace(u); u != "" {
				reps = append(reps, u)
			}
		}
		if len(reps) == 0 {
			return nil, fmt.Errorf("router spec: shard %d has no replica URLs", i)
		}
		topo = append(topo, reps)
	}
	return topo, nil
}

// corpus is the serving state a load produces — dataset, engine and,
// with -wal, the write path (ingester + open log) — swapped in atomically
// once the index build completes. Without live ingestion it is immutable;
// with -wal the dataset mutates under the ingester's lock, and handlers
// route dataset reads through view.
type corpus struct {
	ds  *history.Dataset
	idx queryIndex
	ing *ingest.Ingester // nil without -wal
	wal *wal.Log         // nil without -wal; owned by the serving state
	// pagesLower caches the lowercased page title per attribute so
	// resolve's substring match does not re-lowercase every title on
	// every request.
	pagesLower []string
	// shardH is the /shard RPC surface in shard-server mode, mounted by
	// routes behind the readiness/shedding middleware; nil otherwise.
	shardH http.Handler
}

// newCorpus derives every cached view (currently the lowercased page
// titles resolve scans) from the dataset at construction time. Building
// the cache here rather than at the install site means a future second
// caller that swaps the corpus pointer cannot forget to invalidate it:
// a corpus and its caches are created together or not at all.
func newCorpus(ds *history.Dataset, idx queryIndex) *corpus {
	pages := make([]string, ds.Len())
	for i, h := range ds.Attrs() {
		pages[i] = strings.ToLower(h.Meta().Page)
	}
	return &corpus{ds: ds, idx: idx, pagesLower: pages}
}

// view runs fn with the dataset quiescent. With live ingestion the
// ingester's read lock excludes the apply step's clone-and-replace swap;
// without it the dataset is immutable and fn runs directly.
func (c *corpus) view(fn func(ds *history.Dataset)) {
	if c.ing != nil {
		c.ing.View(fn)
		return
	}
	fn(c.ds)
}

// server bundles the serving state with the robustness machinery.
type server struct {
	cfg     config
	corpus  atomic.Pointer[corpus]
	limiter *sem.Weighted
	// queryID numbers admitted query requests; the ID is returned in the
	// X-Query-ID response header and attached to the wide event so a
	// client-reported request can be matched to its event.
	queryID atomic.Uint64
	// replay publishes WAL-replay progress for /readyz while the corpus
	// loads after a restart.
	replay replayProgress
}

func newServer(cfg config) *server {
	capacity := cfg.maxInFlight
	if capacity <= 0 {
		capacity = int64(4 * runtime.GOMAXPROCS(0))
	}
	return &server{cfg: cfg, limiter: sem.New(capacity)}
}

// install publishes the serving state, flipping /readyz to 200 and
// letting query endpoints through. It first sets the index state gauges
// from the engine's Stats() — a sharded or routed engine's aggregate;
// on a router this is the one time they cross the wire, since shard
// servers are read-only. Live ingestion republishes after every refresh
// (gaugedEngine), so /metrics never reads the index.
func (s *server) install(c *corpus) {
	index.PublishStats(c.idx.Stats())
	s.corpus.Store(c)
}

// queryHandler is an endpoint that needs the corpus; the query
// middleware hands it the current snapshot.
type queryHandler func(c *corpus, w http.ResponseWriter, r *http.Request)

// viewed runs a handler under the corpus view so the dataset is
// quiescent for its whole body — resolution, query and rendering all
// read it, and with live ingestion the apply step mutates attribute
// pointers, the horizon and the value dictionary. Lock order matches
// the apply path (dataset lock before engine lock), so queries and
// applies interleave without deadlock. /ingest must NOT be viewed: its
// Submit acquires the same dataset lock, and nesting read locks around
// a queued writer deadlocks.
func viewed(h queryHandler) queryHandler {
	return func(c *corpus, w http.ResponseWriter, r *http.Request) {
		c.view(func(*history.Dataset) { h(c, w, r) })
	}
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	// /stats is not viewed: it reads ingester stats, whose lock is taken
	// before the dataset lock on the submit path — see handleStats.
	mux.Handle("GET /stats", s.query(1, s.handleStats))
	if s.cfg.shardServer {
		// A shard answers for its own attributes only, so a shard server
		// serves the shard RPC instead of the public query surface: an
		// answer from one shard is a router's partial answer without the
		// marker. Scatter legs go through the same readiness and shedding
		// middleware as the public endpoints: a shard that is still
		// building answers 503 not_ready in the shared envelope, which the
		// router classifies as a degradable leg (retry the replica, then a
		// typed partial result) rather than a hard error.
		mux.Handle("POST /shard/batch", s.query(1, s.handleShardRPC))
		mux.Handle("GET /shard/info", s.query(1, s.handleShardRPC))
		mux.Handle("GET /shard/stats", s.query(1, s.handleShardRPC))
	} else {
		mux.Handle("GET /search", s.query(1, viewed(s.handleQuery("forward"))))
		mux.Handle("GET /reverse", s.query(1, viewed(s.handleQuery("reverse"))))
		mux.Handle("GET /topk", s.query(topKWeight, viewed(s.handleQuery("topk"))))
		mux.Handle("POST /query/batch", s.query(1, viewed(s.handleBatch)))
		mux.Handle("GET /explain", s.query(1, viewed(s.handleExplain)))
		mux.Handle("GET /attr", s.query(1, viewed(s.handleAttr)))
		mux.Handle("POST /ingest", s.query(1, s.handleIngest))
	}
	// /metrics and /debug/events are deliberately outside the query
	// middleware: scrapes and debugging must work while the index is still
	// building and must never be shed — a degraded server is exactly when
	// they matter.
	mux.HandleFunc("GET /metrics", handleMetrics)
	mux.HandleFunc("GET /debug/events", s.handleEvents)
	if s.cfg.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return recoverJSON(mux)
}

// handleShardRPC delegates a /shard/* request to the shard server's own
// handler (wire decode, ownership resolution, global-id mapping). The
// dataset is immutable in shard-server mode (-wal is rejected), so no
// view is needed.
func (s *server) handleShardRPC(c *corpus, w http.ResponseWriter, r *http.Request) {
	c.shardH.ServeHTTP(w, r)
}

// handleMetrics serves the process-wide registry in the Prometheus 0.0.4
// text format, whatever the scraper's Accept header prefers: every
// scraper accepts it.
func handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.Default().WritePrometheus(w); err != nil {
		slog.Error("writing metrics", "err", err)
	}
}

// admitted is the ResponseWriter of a request the limiter let in. It
// records the status the handler writes, for the request metrics and the
// wide event, and holds the request's limiter weight. The weight goes back
// when the handler starts answering — the engine call has returned by
// then — not after the reply is flushed: a closed-loop client can send its
// next request the moment it has read this one, and at exact capacity a
// release that trails the flush sheds it (on a shard server, a spurious
// "partial" answer).
type admitted struct {
	http.ResponseWriter
	s      *server
	status int
	weight int64 // limiter weight held
}

func (w *admitted) acquire(n int64) bool {
	if !w.s.limiter.TryAcquire(n) {
		return false
	}
	w.weight += n
	mHTTPInFlight.Add(float64(n))
	return true
}

// release gives the held weight back; the calls after the first (later
// writes, the middleware's deferred one) find nothing held.
func (w *admitted) release() {
	if w.weight == 0 {
		return
	}
	w.s.limiter.Release(w.weight)
	mHTTPInFlight.Add(-float64(w.weight))
	w.weight = 0
}

// Admit charges a batch by what it carries. Its route admitted it at
// weight 1 before the body was read, so a saturated server sheds without
// reading; once the handler has decoded the body it reports the entry
// count, and the request is topped up to min(batchWeight, entries) — or
// shed as saturated, in which case Admit has answered and reports false.
// internal/router's /shard/batch handler finds this method on its
// ResponseWriter.
func (w *admitted) Admit(entries int) bool {
	if more := min(batchWeight, int64(entries)) - w.weight; more > 0 && !w.acquire(more) {
		w.s.shed(w, shedSaturated, "server saturated, retry shortly")
		return false
	}
	return true
}

func (w *admitted) WriteHeader(code int) {
	w.release()
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *admitted) Write(b []byte) (int, error) {
	w.release()
	return w.ResponseWriter.Write(b)
}

// queryNote carries per-query diagnostics from a handler back to the
// query middleware, which owns the wide-event record.
type queryNote struct {
	stats *index.QueryStats
	// kind and mode classify the wide event (obs.EventQuery with
	// mode=forward/reverse/topk, or obs.EventBatch); batch is the batch
	// size for obs.EventBatch.
	kind  string
	mode  string
	batch int
}

type noteKey struct{}

// noteStats records the query stats of the request for the wide event.
// Handlers that run an index query call it; for the others no event is
// recorded.
func noteStats(r *http.Request, st *index.QueryStats) {
	if n, ok := r.Context().Value(noteKey{}).(*queryNote); ok {
		n.stats = st
	}
}

// noteQuery classifies the request for its wide event. Only requests
// that also noteStats emit one.
func noteQuery(r *http.Request, kind, mode string, batch int) {
	if n, ok := r.Context().Value(noteKey{}).(*queryNote); ok {
		n.kind = kind
		n.mode = mode
		n.batch = batch
	}
}

// Shed reasons: why a request is being turned away — the label of
// tind_http_shed_total, the input of retryAfterHint and, for the two a
// query endpoint sheds with, the envelope's error code.
const (
	shedNotReady  = router.CodeNotReady
	shedSaturated = router.CodeSaturated
	shedDegraded  = "degraded"
)

// Bounds of the build-in-progress Retry-After hint, in seconds.
const (
	retryHintBuild = 5
	retryHintMax   = 30
)

// retryAfterHint derives the Retry-After value from the server's actual
// state instead of a fixed "1". While the corpus is loading, a retry in
// one second will almost certainly shed again: a plain build takes
// seconds, so the hint says so, and a WAL recovery replay with a
// measured rate predicts its remaining time (bounded to [1,30]s — a
// hint is a hint, not a promise). Saturation stays at 1s: capacity
// frees as soon as an in-flight query completes. Degradation sits at
// 2s: the ingest apply loop and the router's shard probes resolve on a
// seconds cadence.
func (s *server) retryAfterHint(reason string) string {
	switch reason {
	case shedSaturated:
		return "1"
	case shedDegraded:
		return "2"
	}
	if s.replay.active.Load() {
		total, done := s.replay.total.Load(), s.replay.done.Load()
		elapsed := time.Since(time.Unix(0, s.replay.startNano.Load())).Seconds()
		if done > 0 && elapsed > 0 && total > done {
			rate := float64(done) / elapsed
			hint := int(math.Ceil(float64(total-done) / rate))
			if hint < 1 {
				hint = 1
			}
			if hint > retryHintMax {
				hint = retryHintMax
			}
			return strconv.Itoa(hint)
		}
	}
	return strconv.Itoa(retryHintBuild)
}

// shed turns a request away with 503, the envelope code of the reason and
// the Retry-After hint the server's state supports.
func (s *server) shed(w http.ResponseWriter, reason, msg string) {
	mHTTPShed(reason).Inc()
	w.Header().Set("Retry-After", s.retryAfterHint(reason))
	router.HTTPError(w, http.StatusServiceUnavailable, reason, errors.New(msg))
}

// query gates an endpoint behind readiness, the concurrency limiter and
// the per-request deadline. Not-ready and saturated both shed with 503 +
// Retry-After rather than queueing: the client retrying in a second is
// cheaper than a goroutine parked on a semaphore. Admitted requests are
// timed and counted per endpoint and status, and those that ran an index
// query record one wide event.
func (s *server) query(weight int64, h queryHandler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		endpoint := r.URL.Path
		c := s.corpus.Load()
		if c == nil {
			mHTTPRequests(endpoint, http.StatusServiceUnavailable).Inc()
			s.shed(w, shedNotReady, "index still building, retry shortly")
			return
		}
		sr := &admitted{ResponseWriter: w, s: s, status: http.StatusOK}
		if !sr.acquire(weight) {
			mHTTPRequests(endpoint, http.StatusServiceUnavailable).Inc()
			s.shed(w, shedSaturated, "server saturated, retry shortly")
			return
		}
		// A handler that never answers (a panic) still gives its weight back.
		defer sr.release()
		if s.cfg.queryTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.queryTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		qid := s.queryID.Add(1)
		w.Header().Set("X-Query-ID", strconv.FormatUint(qid, 10))
		note := &queryNote{}
		r = r.WithContext(context.WithValue(r.Context(), noteKey{}, note))
		start := time.Now()
		h(c, sr, r)
		elapsed := time.Since(start)
		mHTTPRequests(endpoint, sr.status).Inc()
		mHTTPSeconds(endpoint).ObserveDuration(elapsed)
		mQuerySeconds.ObserveDuration(elapsed)
		if note.stats != nil {
			recordQueryEvent(note, qid, endpoint, sr.status, elapsed)
		}
	})
}

// recoverJSON turns a handler panic into a structured JSON 500 and a
// stack trace in the log, keeping the process alive. http.ErrAbortHandler
// passes through — it is the sanctioned way to abort a response.
func recoverJSON(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			slog.Error("panic serving request", "method", r.Method, "path", r.URL.Path,
				"panic", rec, "stack", string(debug.Stack()))
			router.HTTPError(w, http.StatusInternalServerError, router.CodeInternal, fmt.Errorf("internal error: %v", rec))
		}()
		next.ServeHTTP(w, r)
	})
}

// quantileMillis estimates a process-lifetime query latency quantile in
// milliseconds, rounded to the microsecond. Callers must guard against
// an empty histogram (the estimate would be NaN, which JSON and the log
// both handle badly).
func quantileMillis(q float64) float64 {
	return math.Round(1e6*mQuerySeconds.Quantile(q)) / 1e3
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]interface{}{"status": "ok"}
	// Latency quantiles since process start, from the aggregate query
	// histogram. Only present once a query has been served: quantiles of
	// an empty histogram are NaN, which won't marshal.
	if n := mQuerySeconds.Count(); n > 0 {
		body["queries_served"] = n
		body["query_latency_ms"] = map[string]float64{
			"p50": quantileMillis(0.50),
			"p95": quantileMillis(0.95),
			"p99": quantileMillis(0.99),
		}
	}
	router.WriteJSON(w, body)
}

// handleReadyz reports serving readiness. Three states: not ready while
// the corpus loads (with structured WAL-replay progress when a recovery
// replay is running), degraded for one of the causes degraded names, and
// ready otherwise.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	c := s.corpus.Load()
	if c == nil {
		body := map[string]interface{}{"status": "starting", "error": "index still building"}
		if s.replay.active.Load() {
			total, done := s.replay.total.Load(), s.replay.done.Load()
			replay := map[string]interface{}{
				"records_total":    total,
				"records_replayed": done,
			}
			if total > 0 {
				replay["percent"] = math.Round(10000*float64(done)/float64(total)) / 100
			}
			if elapsed := time.Since(time.Unix(0, s.replay.startNano.Load())); elapsed > 0 && done > 0 {
				replay["records_per_second"] = math.Round(float64(done) / elapsed.Seconds())
			}
			body["status"] = "replaying_wal"
			body["wal_replay"] = replay
		}
		s.unready(w, shedNotReady, body)
		return
	}
	if reason, body := s.degraded(r.Context(), c); reason != "" {
		body["status"] = "degraded"
		body["error"] = reason
		s.unready(w, shedDegraded, body)
		return
	}
	router.WriteJSON(w, map[string]interface{}{"status": "ready"})
}

// degraded reports why an installed server should be out of rotation,
// with the body fields that explain it, or "" when nothing is wrong:
//
//   - live ingestion's last apply failed, or it has fallen behind the
//     -max-staleness bound;
//   - a router's active probe finds shards unreachable, so /readyz shows
//     the cluster's state, not just the router process's.
func (s *server) degraded(ctx context.Context, c *corpus) (string, map[string]interface{}) {
	if c.ing != nil {
		st := c.ing.Stats()
		reason := ""
		switch {
		case st.LastError != "":
			reason = "ingest apply failing: " + st.LastError
		case s.cfg.maxStaleness > 0 && st.OldestPendingAge > s.cfg.maxStaleness:
			reason = fmt.Sprintf("staleness bound exceeded: oldest pending delta %v > %v",
				st.OldestPendingAge.Round(time.Millisecond), s.cfg.maxStaleness)
		}
		if reason != "" {
			return reason, map[string]interface{}{
				"pending_records":   st.PendingRecords,
				"oldest_pending_ms": float64(st.OldestPendingAge) / float64(time.Millisecond),
				"max_staleness_ms":  float64(s.cfg.maxStaleness) / float64(time.Millisecond),
			}
		}
	}
	if rem, ok := c.idx.(remote); ok {
		pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		down := rem.Probe(pctx)
		cancel()
		if len(down) > 0 {
			return fmt.Sprintf("%d of %d shards unreachable; queries answer partial results", len(down), rem.NumShards()),
				map[string]interface{}{"shards_down": down}
		}
	}
	return "", nil
}

// unready answers a probe 503 with the Retry-After hint of reason.
func (s *server) unready(w http.ResponseWriter, reason string, body map[string]interface{}) {
	w.Header().Set("Retry-After", s.retryAfterHint(reason))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(body)
}

// ingestDelta is one history delta in a POST /ingest request body.
type ingestDelta struct {
	Op      string         `json:"op"` // append | extend_observation | extend_horizon
	Attr    history.AttrID `json:"attr"`
	Start   int            `json:"start,omitempty"`
	End     int            `json:"end"`
	Horizon int            `json:"horizon,omitempty"`
	Values  []string       `json:"values,omitempty"`
}

// ingestMaxBody bounds a POST /ingest request body; a delta batch is a
// control-plane payload, not a bulk load.
const ingestMaxBody = 8 << 20

// handleIngest accepts a batch of history deltas:
//
//	{"deltas": [{"op": "extend_horizon", "horizon": 91},
//	            {"op": "append", "attr": 3, "start": 90, "end": 91, "values": ["x"]}]}
//
// The batch is atomic: every delta validates against the dataset plus
// the pending queue plus the batch prefix, or the whole batch is
// rejected with 400 and nothing is logged. On 200 the batch is already
// fsynced to the WAL — it survives a crash — and will fold into the
// serving index within the staleness bound.
func (s *server) handleIngest(c *corpus, w http.ResponseWriter, r *http.Request) {
	if c.ing == nil {
		router.HTTPError(w, http.StatusNotImplemented, router.CodeNotImplemented, errors.New("live ingestion disabled: start with -wal"))
		return
	}
	var req struct {
		Deltas []ingestDelta `json:"deltas"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, ingestMaxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		router.HTTPError(w, http.StatusBadRequest, router.CodeInvalidParameter, fmt.Errorf("bad request body: %w", err))
		return
	}
	if len(req.Deltas) == 0 {
		router.HTTPError(w, http.StatusBadRequest, router.CodeInvalidParameter, errors.New("empty delta batch"))
		return
	}
	recs := make([]wal.Record, len(req.Deltas))
	for i, d := range req.Deltas {
		rec := wal.Record{
			Attr:    d.Attr,
			Start:   timeline.Time(d.Start),
			End:     timeline.Time(d.End),
			Horizon: timeline.Time(d.Horizon),
			Values:  d.Values,
		}
		switch d.Op {
		case "append":
			rec.Type = wal.TypeAppend
		case "extend_observation":
			rec.Type = wal.TypeExtendObservation
		case "extend_horizon":
			rec.Type = wal.TypeExtendHorizon
		default:
			router.HTTPError(w, http.StatusBadRequest, router.CodeInvalidParameter, fmt.Errorf("delta %d: unknown op %q", i, d.Op))
			return
		}
		recs[i] = rec
	}
	if err := c.ing.Submit(recs); err != nil {
		switch {
		case errors.Is(err, ingest.ErrRejected):
			router.HTTPError(w, http.StatusBadRequest, router.CodeRejected, err)
		case errors.Is(err, ingest.ErrClosed):
			w.Header().Set("Retry-After", s.retryAfterHint(shedSaturated))
			router.HTTPError(w, http.StatusServiceUnavailable, router.CodeNotReady, err)
		default:
			// WAL append failure: the delta is not durable, surface it loudly.
			router.HTTPError(w, http.StatusInternalServerError, router.CodeInternal, err)
		}
		return
	}
	st := c.ing.Stats()
	router.WriteJSON(w, map[string]interface{}{
		"accepted":        len(recs),
		"durable":         true,
		"pending_records": st.PendingRecords,
		"wal_size":        st.WALSize,
	})
}

func (s *server) handleStats(c *corpus, w http.ResponseWriter, r *http.Request) {
	// Ingester stats come first, outside the view: the ingester lock is
	// taken before the dataset lock on the submit path, so taking it the
	// other way around here could deadlock behind a queued apply.
	var ingestBody map[string]interface{}
	if c.ing != nil {
		ist := c.ing.Stats()
		ingestBody = map[string]interface{}{
			"pending_records":   ist.PendingRecords,
			"oldest_pending_ms": float64(ist.OldestPendingAge) / float64(time.Millisecond),
			"wal_lag_bytes":     ist.WALLagBytes,
			"wal_size":          ist.WALSize,
			"submitted_records": ist.SubmittedRecords,
			"rejected_records":  ist.RejectedRecords,
			"applied_records":   ist.AppliedRecords,
			"applies":           ist.Applies,
			"applied_offset":    ist.AppliedOffset,
			"snapshots":         ist.Snapshots,
			"snapshot_offset":   ist.SnapshotOffset,
		}
		if ist.LastError != "" {
			ingestBody["last_error"] = ist.LastError
		}
	}
	var body map[string]interface{}
	c.view(func(ds *history.Dataset) {
		st := ds.ComputeStats()
		ist := c.idx.Stats()
		body = map[string]interface{}{
			"attributes":       st.Attributes,
			"horizon_days":     int(ds.Horizon()),
			"distinct_values":  st.DistinctValues,
			"mean_changes":     st.MeanChanges,
			"mean_cardinality": st.MeanCardinality,
			"index_slices":     ist.Slices,
			"index_bytes":      ist.MemoryBytes,
			"index_bits": map[string]interface{}{
				"m_t":    ist.MTBits,
				"slices": ist.SliceBits,
				"m_r":    ist.MRBits,
			},
		}
	})
	if e, ok := c.idx.(partitioned); ok {
		body["shards"] = e.NumShards()
	}
	if e, ok := c.idx.(remote); ok {
		down := e.Degraded()
		if down == nil {
			down = []int{}
		}
		body["router"] = map[string]interface{}{"shards_down": down}
	}
	if sg, ok := c.idx.(*shard.Single); ok {
		body["shard_id"] = sg.ShardID
		body["owned_attributes"] = len(sg.Globals())
	}
	if ingestBody != nil {
		body["ingest"] = ingestBody
	}
	router.WriteJSON(w, body)
}
