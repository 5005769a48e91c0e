// Package many implements the baselines the paper compares against
// (Sections 2, 4.1 and 5.1):
//
//   - Static: MANY (Tschirschnitz et al.), unary IND discovery on a single
//     snapshot via one Bloom-filter bit matrix.
//   - KMany: the paper's straw-man temporal adaptation — k Bloom matrices
//     on randomly chosen snapshots used to prune tIND candidates. Unlike
//     the tIND index it has no required-values matrix, so every query must
//     track violations for all |D| attributes, which is the memory
//     blow-up the paper reports ("k-MANY ran out of memory, starting at
//     1.2 million attributes").
package many

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"tind/internal/bitmatrix"
	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/obs"
	"tind/internal/timeline"
	"tind/internal/values"
)

// Baseline cost accounting, mirroring the index's query metrics so the
// experiment binaries can compare the tIND index against MANY/k-MANY
// from one /metrics scrape or stats dump.
var (
	mStaticQueries = obs.Default().Counter("tind_many_queries_total",
		"Baseline queries answered, by baseline.", obs.L("baseline", "static"))
	mKManyQueries = obs.Default().Counter("tind_many_queries_total",
		"Baseline queries answered, by baseline.", obs.L("baseline", "kmany"))
	mKManySeconds = obs.Default().Histogram("tind_many_query_seconds",
		"k-MANY query latency.", obs.LatencyBuckets)
	mKManyOOM = obs.Default().Counter("tind_many_oom_total",
		"k-MANY queries rejected by the memory budget.")
)

// Static is a MANY index over one snapshot of the dataset.
type Static struct {
	ds *history.Dataset
	t  timeline.Time
	m  *bitmatrix.Matrix
	bp bloom.Params
}

// NewStatic builds a MANY index on the dataset's state at timestamp t.
func NewStatic(ds *history.Dataset, t timeline.Time, bp bloom.Params) (*Static, error) {
	if err := bp.Validate(); err != nil {
		return nil, err
	}
	if t < 0 || t >= ds.Horizon() {
		return nil, fmt.Errorf("many: snapshot %d outside horizon [0,%d)", t, ds.Horizon())
	}
	s := &Static{ds: ds, t: t, bp: bp, m: bitmatrix.NewMatrix(bp, ds.Len())}
	attrs := ds.Attrs()
	s.m.FillColumns(func(i int, buf values.Set) values.Set { return append(buf, attrs[i].At(t)...) })
	return s, nil
}

// Snapshot returns the indexed timestamp.
func (s *Static) Snapshot() timeline.Time { return s.t }

// Search returns all attributes A with Q[t] ⊆ A[t] (Definition 3.1),
// excluding Q itself.
func (s *Static) Search(q *history.History) []history.AttrID {
	mStaticQueries.Inc()
	qv := q.At(s.t)
	cand := s.m.Supersets(bloom.FromSet(s.bp, qv), nil)
	if id := int(q.ID()); id >= 0 && id < s.ds.Len() && s.ds.Attr(q.ID()) == q {
		cand.Clear(id)
	}
	var out []history.AttrID
	cand.ForEach(func(c int) bool {
		if qv.SubsetOf(s.ds.Attr(history.AttrID(c)).At(s.t)) {
			out = append(out, history.AttrID(c))
		}
		return true
	})
	return out
}

// AllPairs discovers all static INDs at the snapshot. Attributes that are
// unobservable or empty at the snapshot are skipped as left-hand sides
// (an empty LHS is trivially contained everywhere).
func (s *Static) AllPairs() []Pair {
	var pairs []Pair
	for i := 0; i < s.ds.Len(); i++ {
		q := s.ds.Attr(history.AttrID(i))
		if q.At(s.t).IsEmpty() {
			continue
		}
		for _, rhs := range s.Search(q) {
			pairs = append(pairs, Pair{LHS: q.ID(), RHS: rhs})
		}
	}
	return pairs
}

// Pair is a discovered inclusion dependency LHS ⊆ RHS.
type Pair struct {
	LHS, RHS history.AttrID
}

// ErrOutOfMemory is returned by KMany when a query's violation-tracking
// state would exceed the configured memory budget, reproducing the
// baseline's failure mode at large attribute counts.
var ErrOutOfMemory = errors.New("many: k-MANY memory budget exceeded")

// KMany adapts MANY to the temporal setting the way the paper's baseline
// does: k Bloom matrices on randomly chosen snapshot days. To stay sound
// under a query δ, matrix j indexes A[[t_j−δ, t_j+δ]]; a Bloom-detected
// violation then proves a real violation at t_j with weight w(t_j).
type KMany struct {
	ds        *history.Dataset
	bp        bloom.Params
	delta     timeline.Time
	snapshots []timeline.Time
	matrices  []*bitmatrix.Matrix
	// MemoryBudget bounds the bytes of per-query violation tracking plus
	// index matrices. 0 means unlimited.
	MemoryBudget int64
}

// NewKMany builds the baseline with k random snapshots, indexed for
// queries with shift tolerance up to delta.
func NewKMany(ds *history.Dataset, k int, delta timeline.Time, bp bloom.Params, seed int64) (*KMany, error) {
	if err := bp.Validate(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("many: k must be positive, got %d", k)
	}
	n := int(ds.Horizon())
	if n == 0 {
		return nil, fmt.Errorf("many: empty horizon")
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[timeline.Time]bool)
	km := &KMany{ds: ds, bp: bp, delta: delta}
	for len(km.snapshots) < k && len(seen) < n {
		t := timeline.Time(rng.Intn(n))
		if seen[t] {
			continue
		}
		seen[t] = true
		km.snapshots = append(km.snapshots, t)
	}
	sort.Slice(km.snapshots, func(i, j int) bool { return km.snapshots[i] < km.snapshots[j] })
	attrs := ds.Attrs()
	for _, t := range km.snapshots {
		m := bitmatrix.NewMatrix(bp, ds.Len())
		win := timeline.Window(t, delta)
		m.FillColumns(func(i int, buf values.Set) values.Set { return attrs[i].AppendUnion(buf, win) })
		km.matrices = append(km.matrices, m)
	}
	return km, nil
}

// Snapshots returns the indexed snapshot days.
func (k *KMany) Snapshots() []timeline.Time { return k.snapshots }

// MemoryBytes returns the size of the index matrices.
func (k *KMany) MemoryBytes() int64 {
	var total int64
	for _, m := range k.matrices {
		total += m.MemoryBytes()
	}
	return total
}

// trackingBytes estimates the per-query violation-tracking footprint:
// one float64 per indexed attribute — the cost the tIND index avoids via
// its required-values pre-pruning.
func (k *KMany) trackingBytes() int64 { return int64(k.ds.Len()) * 8 }

// Result mirrors the tIND index's search result.
type Result struct {
	IDs        []history.AttrID
	Candidates int // candidates left after snapshot pruning
	Elapsed    time.Duration
}

// Search answers a tIND search with the baseline: snapshot matrices prune
// what they can, every surviving candidate is validated exactly. The
// query δ must not exceed the δ the baseline was built with.
func (k *KMany) Search(q *history.History, p core.Params) (Result, error) {
	start := time.Now()
	mKManyQueries.Inc()
	defer func() { mKManySeconds.ObserveDuration(time.Since(start)) }()
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if k.MemoryBudget > 0 && k.trackingBytes()+k.MemoryBytes() > k.MemoryBudget {
		mKManyOOM.Inc()
		return Result{}, fmt.Errorf("%w: need %d bytes for violation tracking over %d attributes",
			ErrOutOfMemory, k.trackingBytes()+k.MemoryBytes(), k.ds.Len())
	}
	// No required-values matrix: all attributes start as candidates and
	// all of them need violation tracking.
	cand := bitmatrix.NewVecFull(k.ds.Len())
	if id := int(q.ID()); id >= 0 && id < k.ds.Len() && k.ds.Attr(q.ID()) == q {
		cand.Clear(id)
	}
	vio := make([]float64, k.ds.Len())
	usable := p.Delta <= k.delta
	if usable {
		for j, t := range k.snapshots {
			qv := q.At(t)
			if qv.IsEmpty() {
				continue
			}
			ok := k.matrices[j].Supersets(bloom.FromSet(k.bp, qv), cand)
			violators := cand.Clone()
			violators.AndNot(ok)
			w := p.Weight.Weight(t)
			violators.ForEach(func(c int) bool {
				vio[c] += w
				if vio[c] > p.Epsilon {
					cand.Clear(c)
				}
				return true
			})
		}
	}
	// Q is the same for every candidate, so its side of the sweep is
	// prepared once, as the tIND index's forward scan does.
	var ids []history.AttrID
	res := Result{Candidates: cand.Count()}
	var s core.Scratch
	var pq core.Prepared
	pq.Prepare(q, p.Weight)
	cand.ForEach(func(c int) bool {
		if _, ok, _ := s.CheckPrepared(nil, &pq, k.ds.Attr(history.AttrID(c)), p); ok {
			ids = append(ids, history.AttrID(c))
		}
		return true
	})
	res.IDs = ids
	res.Elapsed = time.Since(start)
	return res, nil
}
