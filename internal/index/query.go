package index

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"tind/internal/bitmatrix"
	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/obs"
	"tind/internal/timeline"
	"tind/internal/values"
)

// Mode selects the direction of a Query.
type Mode int

const (
	// ModeForward finds all A with Q ⊆_{w,ε,δ} A (Definition 3.7,
	// Algorithm 1).
	ModeForward Mode = iota
	// ModeReverse finds all A with A ⊆_{w,ε,δ} Q (Definition 3.8); an
	// index built without Options.Reverse answers it from the weighted
	// prefix index alone.
	ModeReverse
	// ModeTopK ranks the K attributes with the smallest exact violation
	// weight of Q ⊆_{w,·,δ} A: every other attribute is a candidate, and
	// only those a lower bound cannot rule out are swept.
	ModeTopK

	numModes
)

// String names the mode for metric labels and logs.
func (m Mode) String() string {
	switch m {
	case ModeForward:
		return "forward"
	case ModeReverse:
		return "reverse"
	case ModeTopK:
		return "topk"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// QueryOptions parameterizes one call to Index.Query.
type QueryOptions struct {
	// Mode is the query direction; the zero value is ModeForward.
	Mode Mode
	// Params is the tIND relaxation (ε, δ, w). ModeTopK ranks by exact
	// weight and ignores Epsilon.
	Params core.Params
	// K is the result count for ModeTopK; other modes ignore it.
	K int
	// Trace additionally records per-phase spans into Stats.Trace. The
	// Timings breakdown is always populated; the spans are read off the
	// same clock reads, so each span's Duration is its Timings field, and
	// cost one slice per query more. Off by default.
	Trace bool
}

// Timings is the per-phase breakdown of a query (obs.Timings).
type Timings = obs.Timings

// TraceSpan is one recorded query phase (offsets relative to query start).
type TraceSpan = obs.Span

// Query is the context-first entry point for all single-query modes:
// forward search, reverse search and top-k ranking, selected by
// QueryOptions.Mode. It runs the same pooled pipeline as one QueryBatch
// entry.
//
// The context is polled between pruning stages, between candidate
// batches of the forward subset pre-check and inside exact validation;
// once it is done the query returns ErrCanceled or ErrDeadlineExceeded
// (wrapped) together with the partial statistics gathered so far.
// Stats.Timings is populated on every return, successful or not.
func (x *Index) Query(ctx context.Context, q *history.History, o QueryOptions) (Result, error) {
	start := time.Now()
	if err := o.validate(); err != nil {
		return errResult(start), err
	}
	// Shared lock for the whole query: Refresh mutates matrix columns,
	// minimum violation weights and the option weight in place, so it must
	// not interleave with a running query. Queries among themselves share.
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.runOne(ctx, q, o)
}

// runOne executes a validated query on an arena of its own; the caller
// holds the read lock.
func (x *Index) runOne(ctx context.Context, q *history.History, o QueryOptions) (Result, error) {
	ar := x.pool.getArena(len(x.cols))
	defer x.pool.putArena(ar)
	return x.runEntry(ctx, q, o, ar, 0)
}

// errResult stamps the Timings contract onto an otherwise empty Result:
// Stats.Elapsed and Timings.Total are set on every return, including
// option-validation failures that never reach the query pipeline. The
// elapsed time is clamped to at least one nanosecond so "populated"
// stays observable even under a coarse clock.
func errResult(start time.Time) Result {
	var res Result
	res.Stats.Elapsed = time.Since(start)
	if res.Stats.Elapsed <= 0 {
		res.Stats.Elapsed = time.Nanosecond
	}
	res.Stats.Timings.Total = res.Stats.Elapsed
	return res
}

// validate rejects malformed query options with ErrInvalidOptions.
func (o QueryOptions) validate() error {
	if o.Mode < 0 || o.Mode >= numModes {
		return fmt.Errorf("%w: unknown query mode %d", ErrInvalidOptions, int(o.Mode))
	}
	if o.Mode == ModeTopK && o.K <= 0 {
		return fmt.Errorf("%w: ModeTopK requires K > 0, got %d", ErrInvalidOptions, o.K)
	}
	if err := o.Params.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidOptions, err)
	}
	return nil
}

// queryRun carries the cross-phase state of one query — a Query call or
// one QueryBatch entry: the clock, the spans when traced, the mode's
// metrics and the scratch arena of the goroutine executing it.
type queryRun struct {
	x     *Index
	mode  Mode
	start time.Time
	trace bool
	spans []obs.Span // handed to Stats.Trace, so allocated per run, never from the arena

	// ar is the run's scratch arena, owned by the executing goroutine for
	// the duration of the run; nothing in it may be reachable from the
	// returned Result.
	ar *arena
	// valWorkers bounds the goroutines validating the run's candidates;
	// ≤ 0 means GOMAXPROCS. runEntries pins it to 1 while it parallelizes
	// across queries.
	valWorkers int
}

// newCand returns a pooled dataset-width candidate vector with
// unspecified contents.
func (r *queryRun) newCand() *bitmatrix.Vec { return r.x.pool.getVec(len(r.x.cols)) }

// filterFor rebuilds the arena's Bloom filter of m's width over the set:
// the filter m's probes take. The returned filter is only valid until the
// next filterFor call at the same width on the same run.
func (r *queryRun) filterFor(m *bitmatrix.Matrix, s values.Set) *bloom.Filter {
	f := r.ar.filterOf(m.Params())
	f.Reset()
	f.AddSet(s)
	return f
}

// requiredValues computes R_{ε,w}(q) into the arena's scratch. The
// returned set aliases the arena and is only valid until the next
// requiredValues call on the same run — callers keep it strictly within
// the current query and never hand it to a Result.
func (r *queryRun) requiredValues(q *history.History, epsilon float64, w timeline.WeightFunc) values.Set {
	return core.RequiredValuesScratch(q, epsilon, w, &r.ar.req)
}

// phase times one pipeline phase: end() reads the clock once and records
// the elapsed time into *dst, the mode's phase histogram and, when traced,
// a span. phaseTimer is a value, not a closure, so the hot batched path
// times its four phases without heap allocation.
func (r *queryRun) phase(name string, dst *time.Duration) phaseTimer {
	return phaseTimer{r: r, name: name, dst: dst, start: time.Now()}
}

type phaseTimer struct {
	r     *queryRun
	name  string
	dst   *time.Duration
	start time.Time
}

func (p phaseTimer) end() {
	now := time.Now()
	*p.dst = now.Sub(p.start)
	qm[p.r.mode].phases[p.name].ObserveDuration(*p.dst)
	if r := p.r; r.trace {
		r.spans = append(r.spans, obs.Span{Name: p.name, Start: p.start.Sub(r.start), End: now.Sub(r.start)})
	}
}

// finish seals the statistics of the run: total time, trace, and the
// per-mode counters and histograms. Called exactly once per Query.
func (r *queryRun) finish(st *QueryStats, err error) {
	st.Elapsed = time.Since(r.start)
	st.Timings.Total = st.Elapsed
	st.Trace = r.spans
	m := &qm[r.mode]
	m.total.ObserveDuration(st.Elapsed)
	m.candInitial.Observe(float64(st.InitialCandidates))
	m.candSlices.Observe(float64(st.AfterSlices))
	m.candSubset.Observe(float64(st.AfterSubsetCheck))
	m.exactChecks.Add(int64(st.Validated))
	m.resultsEmitted.Add(int64(st.Results))
	if err != nil {
		m.errors.Inc()
	}
}

// search implements forward (Algorithm 1) and reverse (Section 4.5) tIND
// search with per-phase timing. Parameters have been validated by Query.
func (r *queryRun) search(ctx context.Context, q *history.History, p core.Params, reverse bool) (Result, error) {
	var st QueryStats
	hits, err := r.searchHits(ctx, q, p, reverse, &st)
	if err != nil || len(hits) == 0 {
		return Result{Stats: st}, err
	}
	ids := make([]history.AttrID, len(hits))
	for i, h := range hits {
		ids[i] = h.ID
	}
	return Result{IDs: ids, Stats: st}, nil
}

// prune runs phases 1–3 of the pipeline, leaving in cand the candidates
// exact validation must decide, and reports whether it holds every other
// attribute (filled). A phase runs only where it can remove a candidate
// for less than validating it costs.
func (r *queryRun) prune(ctx context.Context, q *history.History, p core.Params, reverse bool,
	cand *bitmatrix.Vec, st *QueryStats) (filled bool, err error) {
	x := r.x
	if err := CtxErr(ctx); err != nil {
		return false, err
	}
	// Phase 1: candidate generation — M_T supersets for forward search
	// (line 2 of Algorithm 1), every attribute when R_ε(Q) is empty — as
	// R_∞(Q) is, so an unbounded scan builds none; M_R subsets for reverse
	// search, the weighted prefix index where M_R does not cover the query.
	endPhase := r.phase(obs.PhaseMTPrune, &st.Timings.MTPrune)
	var req values.Set // forward only; reused by the subset check
	if reverse {
		if x.mRCovers(p) {
			r.ar.bits = x.mR.SubsetsInto(r.filterFor(x.mR, q.AllValues()), nil, cand, r.ar.bits)
		} else {
			r.prefixCandidates(q, p, cand)
		}
	} else {
		if !math.IsInf(p.Epsilon, 1) {
			req = r.requiredValues(q, p.Epsilon, p.Weight)
		}
		if filled = len(req) == 0 || x.opt.DisableRequiredValues; filled {
			cand.Fill()
		} else {
			r.ar.bits = x.mT.SupersetsInto(r.filterFor(x.mT, req), nil, cand, r.ar.bits)
		}
	}
	x.excludeSelf(q, cand)
	st.InitialCandidates = cand.Count()
	endPhase.end()

	// Phase 2: time-slice pruning with violation tracking. Only sound
	// when the query δ does not exceed the index δ (and, for reverse
	// search, under the index weighting), and idle under an infinite ε.
	endPhase = r.phase(obs.PhaseSlicePrune, &st.Timings.SlicePrune)
	if p.Delta <= x.opt.Params.Delta && !math.IsInf(p.Epsilon, 1) && st.InitialCandidates > 0 {
		if !reverse {
			err = r.forwardSlicePrune(ctx, q, p, cand, st)
		} else if sameWeight(p.Weight, x.opt.Params.Weight) {
			err = r.reverseSlicePrune(ctx, q, p, cand, st)
		}
	}
	st.AfterSlices = cand.Count()
	endPhase.end()
	if err != nil {
		return false, err
	}

	// Phase 3, forward only: exact subset pre-check (line 16) discarding
	// Bloom false positives against the actual value sets. Reverse, it would
	// rebuild R_ε(A) per candidate, several times the validation it guards.
	if !reverse {
		endPhase = r.phase(obs.PhaseSubsetCheck, &st.Timings.SubsetCheck)
		err = x.subsetCheck(ctx, cand, req)
		endPhase.end()
	}
	st.AfterSubsetCheck = cand.Count()
	return filled, err
}

// searchHits runs the pruning pipeline and the exact validation, and
// returns the attributes that pass, ascending by id, each with its exact
// violation weight. The hits live in the run's arena: search copies the
// ids out.
func (r *queryRun) searchHits(ctx context.Context, q *history.History, p core.Params, reverse bool,
	st *QueryStats) ([]Ranked, error) {
	x := r.x
	// The candidate vector goes back to the pool on every exit path.
	cand := r.newCand()
	defer x.pool.putVec(cand)
	filled, err := r.prune(ctx, q, p, reverse, cand, st)
	if err != nil {
		return nil, err
	}

	// Phase 4: exact validation (Algorithm 2), in parallel. Forward, Q is
	// the left-hand side of every check, so its side of the sweep is
	// prepared once for all of them; reverse, each candidate is the
	// left-hand side and is prepared by its own check. Where M_T may
	// prune, a forward scan of every attribute also probes it with Q's
	// version keys: the candidates outside their reach cover no version of
	// Q, so each weighs MaxViolation(Q), and one vector operation decides
	// them all.
	endPhase := r.phase(obs.PhaseValidate, &st.Timings.Validate)
	pq := &r.ar.prep
	if !reverse {
		pq.Prepare(q, p.Weight)
	}
	var reach *bitmatrix.Vec
	if filled && !x.opt.DisableRequiredValues {
		reach = r.keyReach(q, p.Weight.Horizon(), cand)
	}
	check := func(s *core.Scratch, c int) (float64, bool, error) {
		if reverse {
			return s.Check(ctx, x.cols[c], q, p)
		}
		return s.CheckPrepared(ctx, pq, x.cols[c], p)
	}
	var hits []Ranked
	if reach == nil {
		hits, err = r.validate(ctx, cand, st, check)
	} else {
		hits, err = r.validateReach(ctx, q, p, cand, reach, st, check)
	}
	endPhase.end()
	if err != nil {
		return nil, err
	}
	st.Results = len(hits)
	return hits, nil
}

// validateReach validates the candidates inside the key reach pair by pair
// and decides the rest, U = cand ∧ ¬reach, in closed form: one poll, one
// AND-NOT, and every member of U weighs MaxViolation(Q). When that weight
// is within ε, all of U joins the hits in id order. Every candidate still
// gets an exact verdict, so st.Validated stays |cand|. cand is left
// holding U.
func (r *queryRun) validateReach(ctx context.Context, q *history.History, p core.Params,
	cand, reach *bitmatrix.Vec, st *QueryStats,
	check func(s *core.Scratch, col int) (float64, bool, error)) ([]Ranked, error) {
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	cand.AndNot(reach)
	unreached := cand.Count()
	qm[r.mode].closedForm.Add(int64(unreached))
	hits, err := r.validate(ctx, reach, st, check)
	st.Validated += unreached
	if err != nil {
		return nil, err
	}
	maxVio := core.MaxViolation(q, p.Weight)
	if unreached == 0 || maxVio > p.Epsilon {
		return hits, nil
	}
	cols := cand.AppendOnes(r.ar.todo[:0])
	r.ar.todo = cols
	// Merge from the back, so no hit is overwritten before it moves.
	n := len(hits)
	hits = slices.Grow(hits, len(cols))[:n+len(cols)]
	for i, j, k := n-1, len(cols)-1, len(hits)-1; j >= 0; k-- {
		if id := r.x.ids[cols[j]]; i >= 0 && hits[i].ID > id {
			hits[k] = hits[i]
			i--
		} else {
			hits[k] = Ranked{ID: id, Violation: maxVio}
			j--
		}
	}
	r.ar.hits = hits
	return hits, nil
}

// keyReach returns the candidates M_T admits for the key of some
// non-empty version of Q observed before horizon n: the version's value of
// smallest build-time document frequency, px.prefix's choice, so the
// probes read the sparsest rows. A candidate outside the returned vector
// lacks a value of every such version, hence covers none of them, and its
// violation weight is exactly MaxViolation(Q) (DESIGN §5.1). A Bloom false
// positive only keeps a candidate in, and Refresh only adds bits to M_T's
// columns, so the reach stays a superset of what can cover. The vector is
// the arena's probe, valid until the next probe into it.
func (r *queryRun) keyReach(q *history.History, n timeline.Time, cand *bitmatrix.Vec) *bitmatrix.Vec {
	ar := r.ar
	keys := ar.keys[:0]
	for i := range q.NumVersions() {
		if qv := q.Version(i).Values; !qv.IsEmpty() && !q.Validity(i).Clamp(n).IsEmpty() {
			keys = append(keys, r.x.px.prefix(qv))
		}
	}
	slices.Sort(keys)
	ar.keys = slices.Compact(keys)
	reach := ar.probe
	reach.Reset()
	f := ar.filterOf(r.x.mT.Params())
	for _, k := range ar.keys {
		f.Reset()
		f.Add(k)
		ar.bits = r.x.mT.SupersetsInto(f, cand, ar.pv, ar.bits)
		reach.Or(ar.pv)
	}
	return reach
}

// mRCovers reports whether M_R, which holds R_{ε,w}(A) under the index's ε
// and weight, is a necessary condition under the reverse query's parameters.
func (x *Index) mRCovers(p core.Params) bool {
	return x.mR != nil && p.Epsilon <= x.opt.Params.Epsilon && sameWeight(p.Weight, x.opt.Params.Weight)
}

// forwardSlicePrune runs lines 4-15 of Algorithm 1 over all slices.
func (r *queryRun) forwardSlicePrune(ctx context.Context, q *history.History, p core.Params,
	cand *bitmatrix.Vec, st *QueryStats) error {
	defer r.ar.resetViolations()
	// The query's version boundaries are the same in every slice; compute
	// them once rather than per slice.
	bounds := q.ChangeTimes()
	for _, ts := range r.x.ss.slices {
		if err := CtxErr(ctx); err != nil {
			return err
		}
		st.SlicesUsed++
		r.pruneSlice(q, bounds, p, ts, cand)
		if cand.Count() == 0 {
			break
		}
	}
	return nil
}

// reverseSlicePrune applies the reverse-capable slices (Section 4.5): a
// candidate whose window set is not contained in Q's doubly expanded
// window is provably violated by at least its cheapest version in the
// slice. The slice count is capped per Options.ReverseSlices (more hurt,
// Figure 14).
func (r *queryRun) reverseSlicePrune(ctx context.Context, q *history.History, p core.Params,
	cand *bitmatrix.Vec, st *QueryStats) error {
	x, ar := r.x, r.ar
	defer ar.resetViolations()
	used := 0
	for _, ts := range x.ss.slices {
		if err := CtxErr(ctx); err != nil {
			return err
		}
		if ts.minVio == nil {
			continue // index not built for reverse
		}
		if used >= x.opt.ReverseSlices {
			break
		}
		used++
		st.SlicesUsed++
		qWin := q.Union(ts.iv.Expand(2 * x.opt.Params.Delta))
		violators := ar.probe
		ar.bits = ts.matrix.ViolatorsInto(r.filterFor(ts.matrix, qWin), cand, violators, ar.bits)
		violators.ForEach(func(c int) bool {
			if ar.charge(c, ts.minVio[c]) > p.Epsilon {
				cand.Clear(c)
			}
			return true
		})
		if cand.Count() == 0 {
			break
		}
	}
	return nil
}

// topK implements ModeTopK: the ranking by exact weight at ε = +∞, which
// nothing prunes, so every other attribute is a candidate. rankReach
// decides each candidate's place and sweeps only the few that can rank
// (DESIGN §5.1); the rank phase sorts the best K it returns.
func (r *queryRun) topK(ctx context.Context, q *history.History, o QueryOptions) (Result, error) {
	var st QueryStats
	p := core.Params{Epsilon: math.Inf(1), Delta: o.Params.Delta, Weight: o.Params.Weight}
	cand := r.newCand()
	defer r.x.pool.putVec(cand)
	if _, err := r.prune(ctx, q, p, false, cand, &st); err != nil {
		return Result{Stats: st}, err
	}
	endPhase := r.phase(obs.PhaseValidate, &st.Timings.Validate)
	best, err := r.rankReach(ctx, q, p, cand, o.K, &st)
	endPhase.end()
	if err != nil {
		return Result{Stats: st}, err
	}
	endRank := r.phase(obs.PhaseRank, &st.Timings.Rank)
	slices.SortFunc(best, RankOrder)
	ranked := append(make([]Ranked, 0, len(best)), best...)
	endRank.end()
	st.Results = len(ranked)
	return Result{Ranked: ranked, Stats: st}, nil
}

// rankReach returns, unsorted, the k candidates first in RankOrder by
// exact weight, a threshold stop in the manner of Fagin, Lotem & Naor's
// threshold algorithm:
//
//   - The candidates outside the key reach, U, each weigh MaxViolation(Q),
//     the most any can, so they rank by id alone: the k smallest ids of U
//     seed the best-k max-heap, exact.
//   - Each reached candidate c gets a lower bound lb[c]: one probe of M_T
//     per version of Q that is non-empty and observed before the horizon,
//     with the version's full filter, and every reached candidate outside
//     the probe lacks a value of the version, so its sweep adds the
//     version's clamped weight, which lb[c] adds too.
//   - The reached candidates are swept in ascending (lb, id) until the
//     heap holds k and the next (lb, id) ranks after the heap's worst:
//     every candidate left weighs at least its lb, so none can rank.
//
// lb[c] never exceeds c's exact weight, bit for bit: a Bloom false
// positive only drops a term, lb's terms are a subset of the sweep's added
// in the same relative order, and adding a weight ≥ 0 is monotone under
// float rounding. Without M_T (Options.DisableRequiredValues) every
// candidate is reached and bounded by 0, and the sweep is a full scan.
// Every candidate's place is decided, so st.Validated is |cand|. The
// sweep is sequential on one scratch; the returned heap lives in the
// run's arena.
func (r *queryRun) rankReach(ctx context.Context, q *history.History, p core.Params,
	cand *bitmatrix.Vec, k int, st *QueryStats) ([]Ranked, error) {
	x, ar := r.x, r.ar
	if err := CtxErr(ctx); err != nil {
		return nil, err
	}
	st.Validated = cand.Count()
	pq := &ar.prep
	pq.Prepare(q, p.Weight)
	best := ar.hits[:0]
	add := func(h Ranked) {
		switch {
		case len(best) < k:
			if best = append(best, h); len(best) == k {
				heapify(best, maxHeap)
			}
		case RankOrder(h, best[0]) < 0:
			best[0] = h
			siftDown(best, 0, maxHeap)
		}
	}
	reach := cand
	if !x.opt.DisableRequiredValues {
		reach = r.keyReach(q, p.Weight.Horizon(), cand)
		cand.AndNot(reach)
		qm[r.mode].closedForm.Add(int64(cand.Count()))
		maxVio := core.MaxViolation(q, p.Weight)
		cand.ForEach(func(c int) bool {
			add(Ranked{ID: x.ids[c], Violation: maxVio})
			return len(best) < k
		})
		if err := r.lowerBounds(ctx, q, pq, p.Weight.Horizon(), reach); err != nil {
			return nil, err
		}
	}
	queue := r.boundQueue(reach)

	if len(ar.scratch) == 0 {
		ar.scratch = append(ar.scratch, new(core.Scratch))
	}
	s := ar.scratch[0]
	var err error
	for len(queue) > 0 && (len(best) < k || RankOrder(queue[0], best[0]) <= 0) {
		id := queue[0].ID
		c, _ := x.column(id)
		last := len(queue) - 1
		queue[0] = queue[last]
		queue = queue[:last]
		siftDown(queue, 0, minHeap)
		var w float64
		if w, _, err = s.CheckPrepared(ctx, pq, x.cols[c], p); err != nil {
			break
		}
		add(Ranked{ID: id, Violation: w})
	}
	qm[r.mode].windowSweeps.Add(int64(s.TakeWindowSweeps()))
	if err != nil {
		return nil, typedErr(ctx, err)
	}
	ar.hits = best
	return best, nil
}

// lowerBounds adds to the arena's lb[c], for every candidate c in reach,
// the clamped weight of each version of Q, in version order, that c lacks
// a value of by the M_T probe with the version's full filter; versions
// that are empty or unobserved before horizon n add nothing, as in the
// sweep. It polls ctx once per probe and, when ctx is done, returns its
// error with lb reset to zero.
func (r *queryRun) lowerBounds(ctx context.Context, q *history.History, pq *core.Prepared,
	n timeline.Time, reach *bitmatrix.Vec) error {
	x, ar := r.x, r.ar
	lb := ar.bounds()
	for i := range q.NumVersions() {
		qv := q.Version(i).Values
		if qv.IsEmpty() || q.Validity(i).Clamp(n).IsEmpty() {
			continue
		}
		if err := CtxErr(ctx); err != nil {
			reach.ForEach(func(c int) bool { lb[c] = 0; return true })
			return err
		}
		ar.bits = x.mT.SupersetsInto(r.filterFor(x.mT, qv), reach, ar.pv, ar.bits)
		w := pq.Sum(i)
		reach.ForEachAndNot(ar.pv, func(c int) bool { lb[c] += w; return true })
	}
	return nil
}

// boundQueue returns the candidates of reach, each with its lower bound
// as Violation, as a min-heap in RankOrder: ascending (lb, id). Collecting
// the bounds resets them, so lb is all zero between queries. The queue
// lives in the run's arena.
func (r *queryRun) boundQueue(reach *bitmatrix.Vec) []Ranked {
	ar := r.ar
	lb := ar.bounds()
	queue := ar.queue[:0]
	reach.ForEach(func(c int) bool {
		queue = append(queue, Ranked{ID: r.x.ids[c], Violation: lb[c]})
		lb[c] = 0
		return true
	})
	ar.queue = queue
	heapify(queue, minHeap)
	return queue
}

// RankOrder is top-k's order on every tier: ascending violation, ties by
// id. A sharded gather merges its legs' rankings under it.
func RankOrder(a, b Ranked) int {
	if c := cmp.Compare(a.Violation, b.Violation); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// The two heaps of rankReach: the best k so far are a maxHeap, the bound
// queue a minHeap.
const (
	maxHeap = 1
	minHeap = -1
)

// heapify orders h into a heap in O(len(h)).
func heapify(h []Ranked, dir int) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, dir)
	}
}

// siftDown restores the heap property of h below i: no child comes after
// its parent under dir × RankOrder, so a maxHeap keeps the last in
// RankOrder at the root and a minHeap the first.
func siftDown(h []Ranked, i, dir int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && dir*RankOrder(h[c+1], h[c]) > 0 {
			c++
		}
		if dir*RankOrder(h[c], h[i]) <= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
