package index

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tind/internal/bitmatrix"
	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/timeline"
	"tind/internal/values"
)

// BatchQuery is one sub-query of a QueryBatch call. Exactly one of Query
// and ByID identifies the query attribute.
type BatchQuery struct {
	// Query is the query attribute's history; ignored when ByID is set.
	Query *history.History
	// ID selects one of the indexed attributes, by dataset id, as the
	// query when ByID is true, resolved under the index read lock to the
	// history the index holds. The sharded scatter path depends on this:
	// a pointer resolved outside the lock could be a stale pre-refresh
	// clone, silently breaking self-exclusion.
	ID   history.AttrID
	ByID bool
	// Options parameterizes the sub-query exactly like a Query call.
	Options QueryOptions
}

// BatchOptions configures the execution of one QueryBatch call.
type BatchOptions struct {
	// Workers bounds the goroutines executing sub-queries concurrently;
	// 0 means GOMAXPROCS. Each worker owns one pooled scratch arena for
	// the sub-queries it runs. When more than one worker runs, per-query
	// validation is pinned to a single goroutine — the superior split per
	// Section 4.2.2, mirroring all-pairs discovery.
	Workers int
}

// BlockEntries is how many forward queries all-pairs discovery hands the
// batch path at a time, on every tier. The serving tiers cap a batch
// request (/query/batch, /shard/batch) at the same number, so a discovery
// block always fits one shard RPC.
const BlockEntries = 256

// queryPool recycles the scratch every query runs on: dataset-width
// candidate vectors and per-goroutine arenas.
type queryPool struct {
	vecs   sync.Pool // *bitmatrix.Vec, dataset-width
	arenas sync.Pool // *arena
}

// getVec returns a dataset-width vector with unspecified contents; the
// caller must Fill, Reset or CopyFrom before reading. Vectors of a stale
// width (never expected: the attribute count is fixed after Build) are
// dropped rather than resized.
func (p *queryPool) getVec(n int) *bitmatrix.Vec {
	if v, _ := p.vecs.Get().(*bitmatrix.Vec); v != nil && v.Len() == n {
		return v
	}
	return bitmatrix.NewVec(n)
}

func (p *queryPool) putVec(v *bitmatrix.Vec) {
	if v != nil {
		p.vecs.Put(v)
	}
}

func (p *queryPool) getArena(n int) *arena {
	if a, _ := p.arenas.Get().(*arena); a != nil && a.n == n {
		return a
	}
	return &arena{n: n, probe: bitmatrix.NewVec(n), pv: bitmatrix.NewVec(n)}
}

func (p *queryPool) putArena(a *arena) { p.arenas.Put(a) }

// arena is the reusable scratch of one goroutine executing queries — a
// Query call or one QueryBatch worker. Ownership rule: everything in the
// arena is strictly query-internal — nothing reachable from a returned
// Result may alias arena (or pooled-vector) memory, so results stay
// deeply independent of each other and of later pool reuse. The
// pooling-safety tests pin this.
type arena struct {
	n     int // dataset width the vectors were sized for
	probe *bitmatrix.Vec
	pv    *bitmatrix.Vec
	// filters holds one query filter per matrix width (filterOf).
	filters []*bloom.Filter
	bits    []int
	cuts    []timeline.Time
	todo    []int
	// verdicts, hits and scratch serve exact validation: one verdict slot
	// per candidate, the passing candidates with their weights, and one
	// sweep scratch per validation worker. A top-k run keeps its best-K
	// heap in hits, its reached candidates with their lower bounds in
	// queue, and the bounds as they accumulate in lb, indexed by attribute
	// and all zero between queries.
	verdicts []float64
	hits     []Ranked
	scratch  []*core.Scratch
	queue    []Ranked
	lb       []float64
	// prep is Q's side of the sweep, prepared once per forward or top-k
	// query and shared read-only by the validation workers; keys are the
	// values a scan of every attribute probes M_T with, one per version
	// of Q.
	prep core.Prepared
	keys []values.Value
	// req is the RequiredValuesScratch; the set it returns aliases it, so
	// within one query it stays valid (nothing else uses req), but it must
	// never be retained into a Result or across queries.
	req core.RequiredScratch
	// covered, touched and maxVio serve the prefix phase of reverse
	// search: the weight of each attribute's versions the query may cover
	// (all zero between queries), the columns a posting covered, and
	// MaxViolation under a non-index weight. vio and charged serve the
	// slice phase the same way: each column's violation weight so far (all
	// zero between queries) and the columns charged (charge,
	// resetViolations).
	covered, maxVio, vio []float64
	touched, charged     []int32
	// run is the reusable queryRun of this arena's goroutine: one query
	// executes at a time per arena, and nothing in a Result references
	// the run, so each query may overwrite it in place.
	run queryRun
}

// filterOf returns the arena's query filter of shape p, allocated on first
// use: the matrices differ in width (fitWidth), and each probe takes a
// filter of its matrix's width.
func (a *arena) filterOf(p bloom.Params) *bloom.Filter {
	for _, f := range a.filters {
		if f.Params() == p {
			return f
		}
	}
	f := bloom.New(p)
	a.filters = append(a.filters, f)
	return f
}

// charge adds w to column c's violation weight, listing c in charged when
// it was zero, and returns the new weight. The slice passes accumulate a
// query's partial violations through it.
func (a *arena) charge(c int, w float64) float64 {
	if len(a.vio) != a.n {
		a.vio = make([]float64, a.n)
	}
	v := a.vio[c]
	if v == 0 {
		a.charged = append(a.charged, int32(c))
	}
	v += w
	a.vio[c] = v
	return v
}

// resetViolations zeroes every column charge listed, so vio is all zero
// again, and empties the list.
func (a *arena) resetViolations() {
	for _, c := range a.charged {
		a.vio[c] = 0
	}
	a.charged = a.charged[:0]
}

// bounds returns top-k's lower-bound accumulator, one slot per attribute,
// allocated on first use.
func (a *arena) bounds() []float64 {
	if len(a.lb) != a.n {
		a.lb = make([]float64, a.n)
	}
	return a.lb
}

// QueryBatch executes many queries in one call. Every entry runs exactly
// like a Query — it probes the matrices for itself, which costs what
// survives the probe (≈ 17 µs forward, ≈ 60 µs reverse on 8 000
// attributes), where one row-major sweep for the whole batch shared the
// row loads but not the AND per (row, entry): 32 entries took 16 ms that
// way and take 1.4 ms this way. What the batch shares is one
// acquisition of the index read lock, so it observes a single consistent
// snapshot with respect to Refresh, the pooled arenas, and the workers.
//
// Results are returned in batch order and are identical to issuing each
// sub-query alone — through Query, or as a one-entry batch for a ByID
// entry — including Stats and the Timings contract.
//
// On error the slice still carries the partial statistics of every
// attempted entry; the returned error is the first failing entry's, in
// batch order, named by its position (EntryErr).
func (x *Index) QueryBatch(ctx context.Context, batch []BatchQuery, o BatchOptions) ([]Result, error) {
	if o.Workers < 0 {
		return nil, fmt.Errorf("%w: negative batch workers %d", ErrInvalidOptions, o.Workers)
	}
	for i := range batch {
		if err := batch[i].Options.validate(); err != nil {
			return nil, EntryErr(len(batch), i, err)
		}
		if !batch[i].ByID && batch[i].Query == nil {
			return nil, fmt.Errorf("%w: batch entry %d: nil query history", ErrInvalidOptions, i)
		}
	}
	if len(batch) == 0 {
		return nil, nil
	}
	mBatchQueries.Inc()
	mBatchSize.Observe(float64(len(batch)))

	x.mu.RLock()
	defer x.mu.RUnlock()

	qs := make([]*history.History, len(batch))
	for i := range batch {
		if batch[i].ByID {
			c, ok := x.column(batch[i].ID)
			if !ok {
				return nil, fmt.Errorf("%w: batch entry %d: query attribute %d is not indexed",
					ErrInvalidOptions, i, batch[i].ID)
			}
			qs[i] = x.cols[c]
		} else {
			qs[i] = batch[i].Query
		}
	}

	results := make([]Result, len(batch))
	errs := make([]error, len(batch))
	x.runEntries(len(batch), o.Workers, func(i int, ar *arena, valWorkers int) {
		results[i], errs[i] = x.runEntry(ctx, qs[i], batch[i].Options, ar, valWorkers)
	})
	for i, err := range errs {
		if err != nil {
			return results, EntryErr(len(batch), i, err)
		}
	}
	return results, nil
}

// EntryErr names entry i of an n-entry batch as the one that failed. A lone
// query is a batch of one on every tier: its error stays bare, as Query's is.
func EntryErr(n, i int, err error) error {
	if n == 1 {
		return err
	}
	return fmt.Errorf("batch entry %d: %w", i, err)
}

// runEntries calls entry(i, …) once for every i in [0, n) on up to workers
// goroutines (≤ 0 means GOMAXPROCS): the fan-out of QueryBatch and of each
// all-pairs block. A goroutine owns one pooled arena for all the entries it
// claims, and claims them with one atomic add. When more than one runs,
// each entry validates sequentially (valWorkers 1) — parallel across
// queries, not inside them, the better split per Section 4.2.2; a lone
// worker leaves validation its GOMAXPROCS default (valWorkers 0). The
// caller holds the index read lock.
func (x *Index) runEntries(n, workers int, entry func(i int, ar *arena, valWorkers int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, n))
	valWorkers := 0
	if workers > 1 {
		valWorkers = 1
	}
	var st struct {
		next atomic.Int64
		wg   sync.WaitGroup
	}
	run := func() {
		defer st.wg.Done()
		ar := x.pool.getArena(len(x.cols))
		defer x.pool.putArena(ar)
		for {
			i := int(st.next.Add(1)) - 1
			if i >= n {
				return
			}
			entry(i, ar, valWorkers)
		}
	}
	// The calling goroutine is the first worker.
	st.wg.Add(workers)
	for w := 1; w < workers; w++ {
		go run()
	}
	run()
	st.wg.Wait()
}

// runEntry executes one validated query — a Query call or one QueryBatch
// entry — on the executing goroutine's arena; it is the one place a mode
// is dispatched. valWorkers bounds the goroutines validating its
// candidates; ≤ 0 means GOMAXPROCS. The caller holds the index read lock.
func (x *Index) runEntry(ctx context.Context, q *history.History, o QueryOptions, ar *arena,
	valWorkers int) (Result, error) {
	qm[o.Mode].queries.Inc()
	r := &ar.run
	*r = queryRun{x: x, mode: o.Mode, start: time.Now(), trace: o.Trace, ar: ar, valWorkers: valWorkers}
	var (
		res Result
		err error
	)
	switch o.Mode {
	case ModeForward:
		res, err = r.search(ctx, q, o.Params, false)
	case ModeReverse:
		res, err = r.search(ctx, q, o.Params, true)
	case ModeTopK:
		res, err = r.topK(ctx, q, o)
	}
	r.finish(&res.Stats, err)
	return res, err
}
