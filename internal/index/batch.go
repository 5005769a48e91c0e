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
	"tind/internal/obs"
	"tind/internal/timeline"
	"tind/internal/values"
)

// BatchQuery is one sub-query of a QueryBatch call. Exactly one of Query
// and ByID identifies the query attribute.
type BatchQuery struct {
	// Query is the query attribute's history; ignored when ByID is set.
	Query *history.History
	// ID selects one of the dataset's own attributes as the query when
	// ByID is true, resolved under the index read lock exactly like
	// QueryByID. The sharded scatter path depends on this: a pointer
	// resolved outside the lock could be a stale pre-refresh clone,
	// silently breaking self-exclusion.
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

// queryPool recycles the scratch every query runs on: dataset-width
// candidate vectors, per-goroutine arenas and the batch probe's filters.
// Build creates it, and Index holds it by pointer so the shallow copies
// WithValidationWorkers takes share one pool.
type queryPool struct {
	vecs    sync.Pool // *bitmatrix.Vec, dataset-width
	arenas  sync.Pool // *arena
	filters sync.Pool // *bloom.Filter
}

func newQueryPool() *queryPool { return &queryPool{} }

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

// getFilter returns an empty filter of the given shape, recycling pooled
// ones; filters of a stale shape (only possible across option changes,
// which rebuild the index) are dropped.
func (p *queryPool) getFilter(bp bloom.Params) *bloom.Filter {
	if f, _ := p.filters.Get().(*bloom.Filter); f != nil && f.Params() == bp {
		f.Reset()
		return f
	}
	return bloom.New(bp)
}

func (p *queryPool) putFilter(f *bloom.Filter) { p.filters.Put(f) }

func (p *queryPool) getArena(n int, bp bloom.Params) *arena {
	if a, _ := p.arenas.Get().(*arena); a != nil && a.n == n && a.bp == bp {
		return a
	}
	return &arena{
		n:      n,
		bp:     bp,
		probe:  bitmatrix.NewVec(n),
		pv:     bitmatrix.NewVec(n),
		filter: bloom.New(bp),
		vio:    make(map[int]float64),
		occ:    make(map[values.Value]float64),
	}
}

func (p *queryPool) putArena(a *arena) { p.arenas.Put(a) }

// arena is the reusable scratch of one goroutine executing queries — a
// Query call or one QueryBatch worker. Ownership rule: everything in the
// arena is strictly query-internal — nothing reachable from a returned
// Result may alias arena (or pooled-vector) memory, so results stay
// deeply independent of each other and of later pool reuse. The
// pooling-safety tests pin this.
type arena struct {
	n      int          // dataset width the vectors were sized for
	bp     bloom.Params // filter shape
	probe  *bitmatrix.Vec
	pv     *bitmatrix.Vec
	filter *bloom.Filter
	bits   []int
	vio    map[int]float64
	cuts   []timeline.Time
	todo   []int
	// verdicts, hits and scratch serve exact validation: one verdict slot
	// per candidate, the passing candidates with their weights, and one
	// sweep scratch per validation worker. A top-k run sorts hits in place.
	verdicts []float64
	hits     []Ranked
	scratch  []*core.Scratch
	// occ and vbuf are the RequiredValuesScratch accumulator and output
	// buffer; the set returned from that scratch aliases vbuf, so within
	// one sub-query it stays valid (nothing else touches vbuf), but it
	// must never be retained into a Result or across entries.
	occ  map[values.Value]float64
	vbuf []values.Value
	// reqStore is batchProbe's packed backing for the owned per-entry
	// required-value sets; it must not be reused until the batch that
	// sliced sets out of it has fully completed, which holds because
	// batchProbe returns it to this arena only when QueryBatch ends.
	reqStore []values.Value
	// run is the reusable queryRun of this arena's goroutine: one query
	// executes at a time per arena, and nothing in a Result references
	// the run, so each query may overwrite it in place.
	run queryRun
}

// QueryBatch executes many queries in one call, amortizing the matrix
// probes — each M_T/M_R row is loaded once and serves every sub-query in
// the batch that needs it — and drawing candidate bitsets and scratch
// buffers from the index's sync.Pool-backed arenas, so the steady-state
// per-query allocation count drops to near zero.
//
// Results are returned in batch order and are semantically identical to
// issuing each sub-query through Query/QueryByID, including Stats and
// the Timings contract (the amortized probe time is attributed to each
// beneficiary's MTPrune phase in equal shares). The whole batch runs
// under one acquisition of the index read lock, so it observes a single
// consistent snapshot with respect to Refresh.
//
// On error the slice still carries the partial statistics of every
// attempted entry; the returned error is the first failing entry's, in
// batch order, wrapped with its position.
func (x *Index) QueryBatch(ctx context.Context, batch []BatchQuery, o BatchOptions) ([]Result, error) {
	if o.Workers < 0 {
		return nil, fmt.Errorf("%w: negative batch workers %d", ErrInvalidOptions, o.Workers)
	}
	for i := range batch {
		if err := batch[i].Options.validate(); err != nil {
			return nil, fmt.Errorf("batch entry %d: %w", i, err)
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

	n := x.ds.Len()
	qs := make([]*history.History, len(batch))
	for i := range batch {
		if batch[i].ByID {
			if batch[i].ID < 0 || int(batch[i].ID) >= n {
				return nil, fmt.Errorf("%w: batch entry %d: query attribute %d out of range",
					ErrInvalidOptions, i, batch[i].ID)
			}
			qs[i] = x.ds.Attr(batch[i].ID)
		} else {
			qs[i] = batch[i].Query
		}
	}

	// par backs the probe phase's scratch AND the packed preReqs store,
	// so it must not return to the pool before every entry has run; the
	// single-worker path doubles it as the worker's arena.
	par := x.pool.getArena(n, x.opt.Bloom)
	pres := x.batchProbe(batch, qs, par)

	results := make([]Result, len(batch))
	errs := make([]error, len(batch))
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(batch) {
		workers = len(batch)
	}
	valWorkers := 0
	if workers > 1 {
		valWorkers = 1
	}

	var next int64 = -1
	run := func(ar *arena) {
		for {
			i := int(atomic.AddInt64(&next, 1))
			if i >= len(batch) {
				return
			}
			results[i], errs[i] = x.runEntry(ctx, qs[i], batch[i].Options, ar, pres[i], valWorkers)
		}
	}
	if workers <= 1 {
		run(par)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ar := x.pool.getArena(n, x.opt.Bloom)
				defer x.pool.putArena(ar)
				run(ar)
			}()
		}
		wg.Wait()
	}
	x.pool.putArena(par)
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("batch entry %d: %w", i, err)
		}
	}
	return results, nil
}

// batchProbe runs the amortized phase-1 candidate generation for every
// matrix-eligible sub-query: forward entries probe M_T (supersets of
// their required values), in-budget reverse entries probe M_R (subsets),
// each via one row-major sweep over the respective matrix. Top-k entries
// and matrix-ineligible ones (DisableRequiredValues, a reverse query M_R
// does not cover) are left to generate their own candidates inside search,
// exactly like the single-query path.
func (x *Index) batchProbe(batch []BatchQuery, qs []*history.History, par *arena) []probed {
	n := x.ds.Len()
	pres := make([]probed, len(batch))

	start := time.Now()
	var fwdFilters, revFilters []*bloom.Filter
	var fwdOuts, revOuts []*bitmatrix.Vec
	// Required-value computation uses the caller's arena for its
	// accumulator and output buffer (batchProbe is single-goroutine).
	// The owned per-entry copies that must survive into each entry's run
	// are packed into the arena's shared backing store: append may grow
	// and move it, but previously sliced-out sets keep pointing at the
	// old backing, which stays valid. The caller keeps the arena out of
	// the pool until the whole batch has completed — a concurrent
	// QueryBatch reusing the store under live preReqs slices would
	// corrupt them.
	reqStore := par.reqStore[:0]
	defer func() { par.reqStore = reqStore }()
	for i := range batch {
		qo := batch[i].Options
		switch {
		case qo.Mode == ModeForward && !x.opt.DisableRequiredValues:
			var req values.Set
			req, par.vbuf = core.RequiredValuesScratch(qs[i], qo.Params.Epsilon, qo.Params.Weight, par.occ, par.vbuf)
			off := len(reqStore)
			reqStore = append(reqStore, req...)
			pres[i].req = values.Set(reqStore[off:len(reqStore):len(reqStore)])
			out := x.pool.getVec(n)
			out.Fill()
			pres[i].cand = out
			f := x.pool.getFilter(x.opt.Bloom)
			f.AddSet(req)
			fwdFilters = append(fwdFilters, f)
			fwdOuts = append(fwdOuts, out)
		case qo.Mode == ModeReverse && x.mRCovers(qo.Params):
			out := x.pool.getVec(n)
			out.Fill()
			pres[i].cand = out
			f := x.pool.getFilter(x.opt.Bloom)
			f.AddSet(qs[i].AllValues())
			revFilters = append(revFilters, f)
			revOuts = append(revOuts, out)
		}
	}
	var loads, hits int
	if len(fwdOuts) > 0 {
		l, h := x.mT.SupersetsBatch(fwdFilters, fwdOuts)
		loads += l
		hits += h
	}
	if len(revOuts) > 0 {
		l, h := x.mR.SubsetsBatch(revFilters, revOuts)
		loads += l
		hits += h
	}
	for _, f := range fwdFilters {
		x.pool.putFilter(f)
	}
	for _, f := range revFilters {
		x.pool.putFilter(f)
	}
	mBatchRowLoads.Add(int64(loads))
	mBatchRowHits.Add(int64(hits))
	if k := len(fwdOuts) + len(revOuts); k > 0 {
		share := time.Since(start) / time.Duration(k)
		for i := range pres {
			if pres[i].cand != nil {
				pres[i].share = share
			}
		}
	}
	return pres
}

// runEntry executes one validated query — a Query call or one QueryBatch
// entry — on the executing goroutine's arena; it is the one place a mode
// is dispatched. The caller holds the index read lock; pre.cand (when
// non-nil) transfers ownership of a pooled, batch-probed candidate vector
// to the run, which releases it back to the pool on every exit path.
func (x *Index) runEntry(ctx context.Context, q *history.History, o QueryOptions, ar *arena,
	pre probed, valWorkers int) (Result, error) {
	qm[o.Mode].queries.Inc()
	r := &ar.run
	*r = queryRun{x: x, mode: o.Mode, start: time.Now(), ar: ar, pre: pre, valWorkers: valWorkers}
	if o.Trace {
		r.tr = obs.NewTrace()
	}
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
