package core

import (
	"context"
	"slices"
	"sync"

	"tind/internal/history"
	"tind/internal/timeline"
	"tind/internal/values"
)

// cancelCheckEvery is how many steps of the sweep — versions of Q and
// boundary intervals inside them — Algorithm 2 takes between cancellation
// polls. Attribute histories with many change points produce thousands of
// intervals per candidate pair, so a mid-candidate poll keeps even a
// single pathological validation interruptible; the poll itself is one
// atomic load per batch and vanishes in profiles.
const cancelCheckEvery = 256

// StaticIND reports whether Q[t] ⊆ A[t] (Definition 3.1).
func StaticIND(q, a *history.History, t timeline.Time) bool {
	return q.At(t).SubsetOf(a.At(t))
}

// DeltaContained reports whether Q[t] is δ-contained in A, i.e.
// Q[t] ⊆ A[[t−δ, t+δ]] (Definition 3.4). It is a direct, unoptimized
// realization of the definition; validation uses the interval-partitioned
// Holds instead.
func DeltaContained(q, a *history.History, t timeline.Time, delta timeline.Time) bool {
	qv := q.At(t)
	if qv.IsEmpty() {
		return true
	}
	return qv.SubsetOf(a.Union(timeline.Window(t, delta)))
}

// scratchPool lends Holds, ViolationWeight and Explain a warm Scratch, so
// a one-shot check grows no mark array, row bitsets or window counts.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Holds reports whether Q ⊆_{w,ε,δ} A (Definition 3.6), using Algorithm 2
// restricted to the vocabulary Q and A share (see Scratch.sweep).
func Holds(q, a *history.History, p Params) bool {
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	_, ok, _ := s.Check(nil, q, a, p)
	return ok
}

// ViolationWeight returns the total summed weight of timestamps at which
// Q[t] is not δ-contained in A. The tIND holds iff the result is ≤ ε; the
// exact weight feeds diagnostics and the evaluation harness.
func ViolationWeight(q, a *history.History, p Params) float64 {
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	s.prep.Prepare(q, p.Weight)
	w, _ := s.violationWeight(nil, &s.prep, a, p, false)
	return w
}

// MaxViolation returns the violation weight of Q against an attribute that
// covers none of its versions, the most any right-hand side can reach. It
// adds the same terms in the same order as the sweep does for such a pair,
// so the two agree bit for bit under every weight function.
func MaxViolation(q *history.History, w timeline.WeightFunc) float64 {
	var total float64
	for i := 0; i < q.NumVersions(); i++ {
		if iv := q.Validity(i).Clamp(w.Horizon()); !iv.IsEmpty() && !q.Version(i).Values.IsEmpty() {
			total += w.Sum(iv)
		}
	}
	return total
}

// Scratch is the working memory of the validation sweep. A goroutine that
// validates many pairs keeps one and passes it to every call, which then
// allocates nothing; the zero value is ready to use.
type Scratch struct {
	prep   Prepared // Q's side for Check, prepared afresh for each pair
	counts []int32  // per position in All(Q): versions of A in the δ-window holding it
	qpos   []int32  // the current Q version's values, as positions in All(Q)
	shared []uint64 // All(Q) ∩ All(A) as positions in All(Q)
	walks  int      // pairs whose sweep reached the window walk
}

// TakeWindowSweeps returns how many pairs checked on s since the last call
// reached the window walk — had a version of Q that A could cover — and
// restarts the count.
func (s *Scratch) TakeWindowSweeps() int {
	n := s.walks
	s.walks = 0
	return n
}

// Check runs Algorithm 2 with the early exit: it stops as soon as the
// accumulated violation exceeds ε and reports ok=false with the weight
// reached so far. When ok is true the weight is the exact total, so one
// call both certifies Q ⊆_{w,ε,δ} A and ranks it. A non-nil ctx is polled
// every cancelCheckEvery steps and aborts the pair with its error. Check
// prepares q for this pair alone; a caller that checks one q against many
// right-hand sides prepares it once and calls CheckPrepared.
func (s *Scratch) Check(ctx context.Context, q, a *history.History, p Params) (weight float64, ok bool, err error) {
	s.prep.Prepare(q, p.Weight)
	return s.CheckPrepared(ctx, &s.prep, a, p)
}

// CheckPrepared is Check for the q that pq was prepared for. params.Weight
// must be the weight pq was prepared under.
func (s *Scratch) CheckPrepared(ctx context.Context, pq *Prepared, a *history.History, params Params) (weight float64, ok bool, err error) {
	weight, err = s.violationWeight(ctx, pq, a, params, true)
	return weight, err == nil && weight <= params.Epsilon, err
}

// violationWeight sums the violated runs of the sweep in time order, one
// Weight.Sum per run — the one summation order every consumer of a
// violation weight shares.
func (s *Scratch) violationWeight(ctx context.Context, pq *Prepared, a *history.History,
	p Params, earlyExit bool) (weight float64, err error) {
	err = s.sweep(ctx, pq, a, p, func(_ timeline.Interval, w float64, _ values.Value) bool {
		weight += w
		return !(earlyExit && weight > p.Epsilon)
	})
	return weight, err
}

// sweep is Algorithm 2 — interval partitioning plus a sliding window over
// A's versions — run for the Q that pq was prepared for, on the vocabulary
// the pair shares. It calls yield, in time order, with every maximal run
// of timestamps inside one version of Q at which Q[t] is not δ-contained
// in A, together with the run's weight and one value of Q[t] the window
// lacks when the run begins; yield returning false ends the sweep.
//
// A value outside All(Q) ∩ All(A) is in no window of A, so a version of Q
// holding one is violated for its whole validity. pq's bit rows against
// the pair's shared bitset find such versions, and each adds pq's
// precomputed sum without looking at A at all: against an unrelated
// attribute the sweep is a loop over Q's versions. Only the other,
// coverable versions consult the window, and for them every value is
// shared, so the window keeps counts by position in All(Q), built once the
// first coverable version is met: pq's marks place a version of A's values
// with one lookup each as it enters (at Start−δ) and leaves (at
// ValidUntil+δ). Both version indices only move forward, and a stretch of
// uncoverable versions is skipped without ever counting what entered and
// left meanwhile. The partition is never materialized: inside one version
// of Q the next boundary is simply the earlier of the next entry and the
// next departure.
func (s *Scratch) sweep(ctx context.Context, pq *Prepared, a *history.History, p Params,
	yield func(run timeline.Interval, w float64, missing values.Value) bool) error {
	q, n, d, na := pq.q, p.Weight.Horizon(), p.Delta, a.NumVersions()
	s.shared = pq.sharedWith(s.shared, a.AllValues())
	walking := false // the window counts are ready
	lo, hi := 0, 0   // versions [lo, hi) of A are counted in the window
	poll := poller{ctx: ctx}
	for i := 0; i < q.NumVersions(); i++ {
		if err := poll.err(); err != nil {
			return err
		}
		qv, iv := q.Version(i).Values, q.Validity(i).Clamp(n)
		if qv.IsEmpty() || iv.IsEmpty() {
			continue // unobservable or empty Q is trivially contained
		}
		if v, out := pq.outside(i, s.shared); out {
			if !yield(iv, pq.sums[i], v) {
				return nil
			}
			continue
		}
		s.qpos = pq.positions(s.qpos[:0], qv)
		if !walking {
			walking = true
			s.walks++
			s.counts = slices.Grow(s.counts[:0], len(pq.all))[:len(pq.all)]
			clear(s.counts)
		}
		var run timeline.Interval // the violated run still open at t, if any
		var missing values.Value
		for t := iv.Start; t < iv.End; {
			if err := poll.err(); err != nil {
				return err
			}
			// Bring the window to t, then find how long it stays as it is.
			for ; lo < na && a.ValidUntil(lo)+d <= t; lo++ {
				if lo < hi {
					s.count(pq, a.Version(lo).Values, -1)
				}
			}
			hi = max(hi, lo)
			for ; hi < na && a.Version(hi).Start-d <= t; hi++ {
				s.count(pq, a.Version(hi).Values, 1)
			}
			next := iv.End
			if hi < na {
				next = min(next, a.Version(hi).Start-d)
			}
			if lo < na {
				next = min(next, a.ValidUntil(lo)+d)
			}
			if at, violated := s.firstMiss(); !violated {
				if !run.IsEmpty() && !yield(run, p.Weight.Sum(run), missing) {
					return nil
				}
				run = timeline.Interval{}
			} else if run.IsEmpty() {
				run, missing = timeline.NewInterval(t, next), pq.all[at]
			} else {
				run.End = next
			}
			t = next
		}
		if !run.IsEmpty() && !yield(run, p.Weight.Sum(run), missing) {
			return nil
		}
	}
	return nil
}

// poller polls a context on the first of every cancelCheckEvery calls, so
// each pair is interruptible at its start and a long one inside as well.
type poller struct {
	ctx   context.Context
	calls int
}

func (p *poller) err() error {
	if p.calls++; p.ctx == nil || p.calls%cancelCheckEvery != 1 {
		return nil
	}
	return p.ctx.Err()
}

// count adds d to the window count of every value of All(Q) the version
// holds, found through pq's marks.
func (s *Scratch) count(pq *Prepared, vs values.Set, d int32) {
	for _, v := range vs {
		if int(v) >= len(pq.mark) {
			return
		}
		if at := pq.mark[v] - 1; at >= 0 {
			s.counts[at] += d
		}
	}
}

// firstMiss scans the current Q version's values in id order and reports
// the position (in All(Q)) of the first one absent from the window.
func (s *Scratch) firstMiss() (at int32, violated bool) {
	for _, at := range s.qpos {
		if s.counts[at] == 0 {
			return at, true
		}
	}
	return 0, false
}

// Violation is one maximal interval during which Q is not δ-contained in
// A, with its summed weight.
type Violation struct {
	Interval timeline.Interval
	Weight   float64
	// Missing is one example value of Q that A's δ-window lacks when the
	// interval begins, for human-readable output: a value A never holds
	// if Q's version has one, else the first absent one in id order.
	Missing values.Value
}

// Explain returns the violated intervals of Q ⊆_{w,·,δ} A in time order,
// merging adjacent ones. It answers "why is this tIND (in)valid" for
// interactive exploration: the dependency holds under ε iff the weights
// sum to at most ε.
func Explain(q, a *history.History, p Params) []Violation {
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	s.prep.Prepare(q, p.Weight)
	var out []Violation
	// The sweep reports runs per version of Q; a violation that outlives
	// a change of Q is one interval to the reader.
	_ = s.sweep(nil, &s.prep, a, p, func(run timeline.Interval, w float64, missing values.Value) bool {
		if len(out) > 0 && out[len(out)-1].Interval.End == run.Start {
			out[len(out)-1].Interval.End = run.End
			out[len(out)-1].Weight += w
		} else {
			out = append(out, Violation{Interval: run, Weight: w, Missing: missing})
		}
		return true
	})
	return out
}

// HoldsNaive checks Definition 3.6 timestamp by timestamp. It is the
// oracle for property tests and deliberately trades speed for obvious
// correctness.
func HoldsNaive(q, a *history.History, p Params) bool {
	return ViolationWeightNaive(q, a, p) <= p.Epsilon
}

// ViolationWeightNaive sums per-timestamp violation weights directly.
func ViolationWeightNaive(q, a *history.History, p Params) float64 {
	n := p.Weight.Horizon()
	var violation float64
	for t := timeline.Time(0); t < n; t++ {
		if !DeltaContained(q, a, t, p.Delta) {
			violation += p.Weight.Weight(t)
		}
	}
	return violation
}

// OccurrenceWeights returns w_v(Q) for every value v of Q: the summed
// weight of the timestamps at which v occurs in Q (Section 4.2.1,
// Equation 6). It is the reference RequiredScratch is tested against.
func OccurrenceWeights(q *history.History, w timeline.WeightFunc) map[values.Value]float64 {
	acc := make(map[values.Value]float64, q.AllValues().Len())
	for i := 0; i < q.NumVersions(); i++ {
		ws := w.Sum(q.Validity(i))
		if ws == 0 {
			continue
		}
		for _, v := range q.Version(i).Values {
			acc[v] += ws
		}
	}
	return acc
}

// requiredPool lends RequiredValues a warm scratch, so the build and
// Refresh, which call it once per attribute, grow no mark array per call.
var requiredPool = sync.Pool{New: func() any { return new(RequiredScratch) }}

// RequiredValues returns R_{ε,w}(Q) = {v | w_v(Q) > ε} (Equation 7): the
// values whose occurrence weight alone exceeds the violation budget, so
// any valid right-hand side must contain them at some point in time.
func RequiredValues(q *history.History, epsilon float64, w timeline.WeightFunc) values.Set {
	return AppendRequiredValues(nil, q, epsilon, w)
}

// AppendRequiredValues appends R_{ε,w}(Q) to dst and returns the extended
// slice — RequiredValues on caller-owned storage, for the index build,
// which hashes one per attribute and keeps none.
func AppendRequiredValues(dst values.Set, q *history.History, epsilon float64, w timeline.WeightFunc) values.Set {
	s := requiredPool.Get().(*RequiredScratch)
	defer requiredPool.Put(s)
	return append(dst, RequiredValuesScratch(q, epsilon, w, s)...)
}

// RequiredScratch is the reusable state of RequiredValuesScratch. It sums
// w_v(Q) by v's position in All(Q), found through mark (value id →
// position), like Prepared's marks. An earlier query's marks are never
// cleared: the kernel only looks up Q's own values, each marked afresh.
// Its zero value is ready for use; one scratch serves one goroutine.
type RequiredScratch struct {
	mark []int32
	acc  []float64 // w_v(Q) by position in All(Q)
	buf  []values.Value
}

// RequiredValuesScratch computes R_{ε,w}(Q) like RequiredValues on
// caller-owned scratch, for query execution. Each w_v(Q) receives the same
// additions in the same order as OccurrenceWeights', so the sets are
// identical; walking All(Q) in order emits the set sorted. The returned
// set ALIASES s — it is valid only until s is next used, and a caller that
// retains it longer must copy it first.
func RequiredValuesScratch(q *history.History, epsilon float64, w timeline.WeightFunc,
	s *RequiredScratch) values.Set {
	all := q.AllValues()
	if n := len(all); n > 0 {
		if top := int(all[n-1]) + 1; top > len(s.mark) {
			s.mark = slices.Grow(s.mark, top-len(s.mark))[:top]
		}
	}
	for at, v := range all {
		s.mark[v] = int32(at)
	}
	s.acc = slices.Grow(s.acc[:0], len(all))[:len(all)]
	clear(s.acc)
	for i := 0; i < q.NumVersions(); i++ {
		ws := w.Sum(q.Validity(i))
		if ws == 0 {
			continue
		}
		for _, v := range q.Version(i).Values {
			s.acc[s.mark[v]] += ws
		}
	}
	s.buf = s.buf[:0]
	for at, ow := range s.acc {
		if ow > epsilon {
			s.buf = append(s.buf, all[at])
		}
	}
	return values.Set(s.buf)
}
