package index

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tind/internal/bitmatrix"
	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/obs"
	"tind/internal/timeline"
	"tind/internal/values"
)

// subsetCheckEvery is how many candidates the exact subset pre-check
// (line 16 of Algorithm 1) processes between cancellation polls.
const subsetCheckEvery = 512

// QueryStats records how a single query was answered, feeding the
// runtime-distribution experiments and the /metrics exposition. Its JSON
// form is how a leg's statistics cross the shard RPC (durations as integer
// nanoseconds); Trace and PerShard stay in the process that recorded them.
type QueryStats struct {
	InitialCandidates int           `json:"initial_candidates"` // after M_T, M_R or the prefix index (forward: every attribute when R_ε(Q) is empty)
	AfterSlices       int           `json:"after_slices"`       // after time-slice pruning
	AfterSubsetCheck  int           `json:"after_subset_check"` // after the forward subset pre-check (line 16); reverse: AfterSlices
	Validated         int           `json:"validated"`          // candidates given an exact verdict or place: by Algorithm 2, its closed form, or (top-k) a lower bound ≤ the exact weight that ranks them after the K-th
	Results           int           `json:"results"`            // valid tINDs
	SlicesUsed        int           `json:"slices_used"`        // slice indices consulted (top-k: none, its ε is +∞)
	Elapsed           time.Duration `json:"elapsed_ns"`         // total query time
	// Timings breaks Elapsed down by pruning phase. Total is populated
	// (non-zero) on every Query return, successful or aborted.
	Timings Timings `json:"timings"`
	// Trace holds the per-phase spans when QueryOptions.Trace was set;
	// nil otherwise: one span per phase that ran, top-k's rank included,
	// each read off the same clock reads as its Timings field. A gather
	// or a batch aggregate concatenates its parts' spans.
	Trace []TraceSpan `json:"-"`
	// PerShard attributes the query across a sharded execution: one entry
	// per scatter leg, with that leg's wall time (including shard lock
	// wait — the straggler signal) and shard-local funnel. Nil on a
	// monolithic index. For batched sharded execution a leg covers the
	// whole batch, so every entry names the same legs with the same wall
	// times, each with that entry's own shard-local timings and funnel.
	PerShard []ShardStat `json:"-"`
}

// Add folds src into st: funnel counts and phase timings sum, traces
// concatenate, and src's per-shard rows fold into st's row by row
// (ShardStat.Add). Elapsed and Timings.Total are the caller's to set — a
// gather or a batch stamps its own wall clock. It is the one fold behind
// both the per-shard gather of a scattered query and the per-entry
// aggregate of a batch.
func (st *QueryStats) Add(src *QueryStats) {
	st.InitialCandidates += src.InitialCandidates
	st.AfterSlices += src.AfterSlices
	st.AfterSubsetCheck += src.AfterSubsetCheck
	st.Validated += src.Validated
	st.Results += src.Results
	st.SlicesUsed += src.SlicesUsed
	st.Timings.Add(src.Timings)
	st.Trace = append(st.Trace, src.Trace...)
	if st.PerShard == nil && len(src.PerShard) > 0 {
		st.PerShard = make([]ShardStat, len(src.PerShard))
	}
	for s := range src.PerShard {
		st.PerShard[s].Add(&src.PerShard[s])
	}
}

// ShardStat is one shard's contribution to a sharded query (obs.ShardStat).
type ShardStat = obs.ShardStat

// Result is the answer to a tIND (or reverse tIND) search. When a query
// aborts on a done context, Result carries the statistics accumulated up
// to the abort point (with Elapsed set) alongside the typed error.
type Result struct {
	IDs   []history.AttrID `json:"ids,omitempty"` // attributes satisfying the dependency, ascending
	Stats QueryStats       `json:"stats"`
	// Ranked is populated for ModeTopK only: the top K attributes by
	// ascending exact violation weight (ties by id). IDs stays nil in
	// that mode.
	Ranked []Ranked `json:"ranked,omitempty"`
}

// Ranked is one top-k result: an attribute and the exact violation weight
// of Q ⊆_{w,·,δ} A.
type Ranked struct {
	ID        history.AttrID `json:"id"`
	Violation float64        `json:"violation"`
}

// Search returns all A ∈ D with Q ⊆_{w,ε,δ} A (Definition 3.7),
// implementing Algorithm 1. The query parameters may deviate from the
// index parameters: results stay exact for any ε and w, and for any
// δ ≤ the index δ. A larger query δ disables slice pruning (Section 4.4)
// but still returns exact results via M_T and validation. It is Query
// with ModeForward under context.Background().
func (x *Index) Search(q *history.History, p core.Params) (Result, error) {
	return x.Query(context.Background(), q, QueryOptions{Mode: ModeForward, Params: p})
}

// Reverse returns all A ∈ D with A ⊆_{w,ε,δ} Q (Definition 3.8). Results
// are exact for any ε, δ and w. M_R (built with Options.Reverse) generates
// the candidates for ε ≤ index ε under the index weight function; for any
// other query — or an index without M_R — the weighted prefix index keeps
// only the attributes whose versions outside All(Q) weigh at most ε. The
// slices prune only for δ ≤ index δ under the index weight function. It is
// Query with ModeReverse under context.Background().
func (x *Index) Reverse(q *history.History, p core.Params) (Result, error) {
	return x.Query(context.Background(), q, QueryOptions{Mode: ModeReverse, Params: p})
}

// subsetCheck clears every candidate missing a required value of the
// query, polling the context every subsetCheckEvery candidates.
func (x *Index) subsetCheck(ctx context.Context, cand *bitmatrix.Vec, req values.Set) error {
	if len(req) == 0 {
		return nil
	}
	var n int
	var err error
	cand.ForEach(func(c int) bool {
		if n%subsetCheckEvery == 0 {
			if err = CtxErr(ctx); err != nil {
				return false
			}
		}
		n++
		if !req.SubsetOf(x.cols[c].AllValues()) {
			cand.Clear(c)
		}
		return true
	})
	return err
}

// pruneSlice applies one time-slice index to the candidate set: for every
// distinct version of Q within the slice interval, candidates whose
// indexed window set misses the version accumulate the version's weight as
// a partial violation and are pruned once the budget is exceeded. bounds
// are the query's version boundaries (q.ChangeTimes()), hoisted out by
// the caller because they are slice-independent. The per-sub-interval
// probe result, violated set, filter, cut buffer and the violation sums
// (arena.charge) all come from the run's arena.
func (r *queryRun) pruneSlice(q *history.History, bounds []timeline.Time, p core.Params,
	ts timeSlice, cand *bitmatrix.Vec) {
	ar := r.ar
	// Distinct versions of Q within the interval: version boundaries
	// intersected with I, plus I's own boundaries (line 6).
	cuts := append(ar.cuts[:0], ts.iv.Start)
	for _, b := range bounds {
		if b > ts.iv.Start && b < ts.iv.End {
			cuts = append(cuts, b)
		}
	}
	cuts = append(cuts, ts.iv.End)
	ar.cuts = cuts
	// Q's observation end caps the last sub-interval.
	for j := 0; j+1 < len(cuts); j++ {
		sub := timeline.NewInterval(cuts[j], cuts[j+1])
		qv := q.At(sub.Start)
		if qv.IsEmpty() {
			continue
		}
		sub = sub.Intersect(timeline.NewInterval(sub.Start, q.ObservedUntil()))
		if sub.IsEmpty() {
			continue
		}
		// PV = C ∧ ¬C_I (line 10): candidates violated in this
		// sub-interval.
		ar.bits = ts.matrix.SupersetsInto(r.filterFor(ts.matrix, qv), cand, ar.probe, ar.bits)
		pv := ar.pv
		pv.CopyFrom(cand)
		pv.AndNot(ar.probe)
		if pv.Count() == 0 {
			continue
		}
		wSub := p.Weight.Sum(sub)
		pv.ForEach(func(c int) bool {
			if ar.charge(c, wSub) > p.Epsilon {
				cand.Clear(c)
			}
			return true
		})
	}
}

// sameWeight reports whether the query weight function is the one the
// index was built with. The per-slice minimum violation weights of reverse
// search are precomputed under the index weight function, so slice pruning
// is only sound when the query uses the same one. Comparison uses == on
// the interface and tolerates non-comparable custom implementations by
// treating them as different.
func sameWeight(a, b timeline.WeightFunc) (eq bool) {
	defer func() {
		if recover() != nil {
			eq = false
		}
	}()
	return a == b
}

// excludeSelf removes the query's own column from the candidate set: every
// tIND variant is reflexive (Section 3.4), so Q ⊆ Q carries no information.
// Q is the column's attribute only if it is the very history indexed
// there: the index's copy (a ByID query) or the dataset history it was
// copied from.
func (x *Index) excludeSelf(q *history.History, cand *bitmatrix.Vec) {
	if c, ok := x.column(q.ID()); ok && (x.cols[c] == q || x.src[c] == q) {
		cand.Clear(c)
	}
}

// validate runs the exact check on the column of every remaining
// candidate, in parallel when the index allows it, and returns those that
// pass in ascending id order, each named by its dataset id with the exact
// violation weight its check certified. The check itself may abort (a
// done context surfacing through the sweep's poll); the first such error
// stops all workers at the next candidate boundary and is returned,
// mapped to the typed query errors.
//
// Workers claim candidates in chunks with one atomic add and write each
// verdict into the candidate's own slot, so a sub-microsecond check pays
// for no lock; the slots, the work list, the returned hits and the
// per-worker sweep scratch all belong to the run's arena.
func (r *queryRun) validate(ctx context.Context, cand *bitmatrix.Vec, st *QueryStats,
	check func(s *core.Scratch, col int) (float64, bool, error)) ([]Ranked, error) {
	ar := r.ar
	ar.todo = cand.AppendOnes(ar.todo[:0])
	todo := ar.todo
	st.Validated = len(todo)
	workers := r.valWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(todo)))
	for len(ar.scratch) < workers {
		ar.scratch = append(ar.scratch, new(core.Scratch))
	}
	// One slot per candidate: its exact weight, or -1 once refuted.
	ar.verdicts = slices.Grow(ar.verdicts[:0], len(todo))[:len(todo)]
	verdicts := ar.verdicts

	chunk := len(todo)/(8*workers) + 1
	var next atomic.Int64
	var failed atomic.Bool
	work := func(s *core.Scratch) error {
		for {
			hi := int(next.Add(int64(chunk)))
			for i := hi - chunk; i < min(hi, len(todo)); i++ {
				if failed.Load() {
					return nil
				}
				w, ok, err := check(s, todo[i])
				if err != nil {
					failed.Store(true)
					return err
				}
				if !ok {
					w = -1
				}
				verdicts[i] = w
			}
			if hi >= len(todo) {
				return nil
			}
		}
	}
	var err error
	if workers == 1 {
		err = work(ar.scratch[0])
	} else {
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = work(ar.scratch[w])
			}(w)
		}
		wg.Wait()
		for _, e := range errs {
			if err == nil {
				err = e
			}
		}
	}
	sweeps := 0
	for _, s := range ar.scratch[:workers] {
		sweeps += s.TakeWindowSweeps()
	}
	qm[r.mode].windowSweeps.Add(int64(sweeps))
	if err != nil {
		return nil, typedErr(ctx, err)
	}
	hits := ar.hits[:0]
	for i, w := range verdicts {
		if w >= 0 {
			hits = append(hits, Ranked{ID: r.x.ids[todo[i]], Violation: w})
		}
	}
	ar.hits = hits
	return hits, nil
}

// Pair is a discovered temporal inclusion dependency LHS ⊆_{w,ε,δ} RHS.
type Pair struct {
	LHS, RHS history.AttrID
}

// AllPairsContext discovers the complete set of tINDs in the dataset by
// querying every attribute against the index (Section 3.5), in ascending
// order of LHS, then RHS. It is a client of the batch path: the attributes
// go through runEntries in blocks of BlockEntries forward queries, so
// queries run in parallel on up to workers goroutines (≤ 0 means
// GOMAXPROCS) with sequential validation inside each, the superior split
// per Section 4.2.2. A block holds the read lock like one QueryBatch call
// does, which is how long a Refresh may wait for a discovery run.
// Cancellation propagates through every per-attribute forward query, so an
// n²-sized discovery run stops within one validation-batch boundary of the
// context ending and returns the typed ErrCanceled/ErrDeadlineExceeded.
func (x *Index) AllPairsContext(ctx context.Context, p core.Params, workers int) ([]Pair, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() { mAllPairsSeconds.ObserveDuration(time.Since(start)) }()

	o := QueryOptions{Mode: ModeForward, Params: p}
	n := len(x.cols)
	ids := make([][]history.AttrID, n)
	errs := make([]error, min(n, BlockEntries))
	// entry reads lo, which moves only between blocks, when no worker runs.
	lo, found := 0, 0
	entry := func(i int, ar *arena, valWorkers int) {
		var res Result
		res, errs[i] = x.runEntry(ctx, x.cols[lo+i], o, ar, valWorkers)
		ids[lo+i] = res.IDs
	}
	for ; lo < n; lo += BlockEntries {
		block := min(BlockEntries, n-lo)
		x.mu.RLock()
		x.runEntries(block, workers, entry)
		x.mu.RUnlock()
		for i, err := range errs[:block] {
			if err != nil {
				return nil, err
			}
			found += len(ids[lo+i])
		}
	}
	pairs := slices.Grow([]Pair(nil), found)
	for c, rhss := range ids {
		for _, rhs := range rhss {
			pairs = append(pairs, Pair{LHS: x.ids[c], RHS: rhs})
		}
	}
	return pairs, nil
}
