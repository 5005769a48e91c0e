package index

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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

// Options configures index construction.
type Options struct {
	// Bloom is the shape of M_T and the widest the other matrices get.
	// M_T and M_R keep it: top-k's per-version lower bound probes M_T with
	// each version's full filter and slows × 1.3 at m = 1024 (DESIGN §5),
	// and M_R, which only Build sizes, fills 3.4 % on C8k already. Each
	// slice matrix is filled at Bloom.M and folded in half while the
	// halved matrix fills at most targetFill, so on the C8k corpus the
	// slices take 1 024 bits. The paper's best
	// settings are m=4096 for search and m=512 for reverse search
	// (Section 5.4), because its reverse probe visits every zero-bit row;
	// here a probe finishes per column once few candidates survive, so one
	// index serves both directions.
	Bloom bloom.Params
	// Slices is k, the number of time-slice indices. The default is 4:
	// within noise of 16 on C8k and ahead of it on the dense profile
	// (EXPERIMENTS.md), at a quarter of the slice memory. The paper's
	// best settings are 16 for search and 2 for reverse.
	Slices int
	// Strategy selects slice intervals (Random or WeightedRandom).
	Strategy SliceStrategy
	// Params are the relaxation parameters the index is optimized for.
	// Delta is a hard upper bound for query deltas (Section 4.4); Epsilon
	// and Weight determine slice lengths, and — for reverse search — the
	// required-values matrix M_R, whose ε is a hard upper bound for
	// reverse query epsilons.
	Params core.Params
	// Reverse additionally builds the structures for reverse tIND search
	// (M_R and per-slice minimum violation weights).
	Reverse bool
	// ReverseSlices caps how many slice indices reverse queries consult.
	// The paper finds that more than 2 slices slow reverse search down
	// (Figure 14). Measured here a slice costs a reverse query ≈ 1 µs per
	// candidate it classifies — the median goes from 0.04 ms at 1–2
	// slices to 0.06 ms at 16 (EXPERIMENTS.md, Fig. 14) — and the slices
	// past the second spare no validation worth that. 0 means 2.
	ReverseSlices int
	// Seed drives the random slice selection.
	Seed int64
	// DisableRequiredValues skips the M_T pruning step during search.
	// Searches remain exact (slice pruning and validation still run);
	// the option exists for the ablation experiment that isolates the
	// contribution of each pruning stage.
	DisableRequiredValues bool
}

// DefaultOptions returns the configuration for forward tIND search on a
// dataset with the given horizon: the paper's best for search (m=4096,
// two hash functions, random slices), at 4 slices rather than its 16.
func DefaultOptions(n timeline.Time) Options {
	return Options{
		Bloom:    bloom.Params{M: 4096, K: 2},
		Slices:   4,
		Strategy: Random,
		Params:   core.DefaultDays(n),
	}
}

// DefaultReverseOptions returns the paper's best configuration for reverse
// tIND search: m=512, k=2, weighted-random slices.
func DefaultReverseOptions(n timeline.Time) Options {
	return Options{
		Bloom:    bloom.Params{M: 512, K: 2},
		Slices:   2,
		Strategy: WeightedRandom,
		Params:   core.DefaultDays(n),
	}.ForReverse()
}

// ForReverse returns a copy of o with reverse tIND search enabled:
// Reverse is set and ReverseSlices defaults to the paper's best value of
// 2 when unset. The Bloom shape and slice count are deliberately left
// untouched so one index can serve both directions; start from
// DefaultReverseOptions for the reverse-tuned shape (m=512, k=2,
// weighted-random slices).
func (o Options) ForReverse() Options {
	o.Reverse = true
	if o.ReverseSlices == 0 {
		o.ReverseSlices = 2
	}
	return o
}

// withDefaults fills the documented zero-value defaults: the paper's
// default relaxation when no weight function is given, and 2 reverse
// slices when unset.
func (o Options) withDefaults(horizon timeline.Time) Options {
	if o.Params.Weight == nil {
		o.Params = core.DefaultDays(horizon)
	}
	if o.ReverseSlices == 0 {
		o.ReverseSlices = 2
	}
	return o
}

// Validate reports whether the options are well formed. Every failure
// wraps ErrInvalidOptions. Build validates automatically; callers
// assembling options programmatically can check earlier and cheaper.
func (o Options) Validate() error {
	if err := o.Bloom.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidOptions, err)
	}
	if o.Slices < 0 {
		return fmt.Errorf("%w: negative slice count %d", ErrInvalidOptions, o.Slices)
	}
	if o.ReverseSlices < 0 {
		return fmt.Errorf("%w: negative reverse slice count %d", ErrInvalidOptions, o.ReverseSlices)
	}
	if o.Strategy != Random && o.Strategy != WeightedRandom {
		return fmt.Errorf("%w: unknown slice strategy %d", ErrInvalidOptions, int(o.Strategy))
	}
	if o.Params.Weight != nil {
		if err := o.Params.Validate(); err != nil {
			return fmt.Errorf("%w: %w", ErrInvalidOptions, err)
		}
	}
	return nil
}

// timeSlice is one indexed interval I with its Bloom matrix over A[I^δ].
type timeSlice struct {
	iv     timeline.Interval // the indexed interval I
	matrix *bitmatrix.Matrix // columns: Bloom(A[I^δ])
	// minVio[a] is, for reverse search, the minimum violation weight
	// attributable to a detected violation of attribute a in this slice:
	// the smallest summed weight among the validity sub-intervals of a's
	// versions within I^δ (Section 4.5, Figure 6). Built only for
	// reverse-enabled indices.
	minVio []float64
}

// Index is the chained index structure of Section 4.2: M_T followed by the
// time-slice matrices, optionally extended for reverse search. It is
// immutable after Build — except through Refresh and Reslice — and safe
// for concurrent queries; Refresh and Reslice block queries for their
// duration via mu.
type Index struct {
	// mu serializes Refresh and Reslice (writers) against queries and
	// stats readers.
	mu sync.RWMutex
	// ds is the caller's dataset. Column c of every matrix, and slot c of
	// every per-attribute table, is its attribute ids[c] (ascending).
	// src[c] is that attribute's history in ds as Build or the column's
	// last Refresh read it, and cols[c] the index's own copy of it.
	// Queries read cols, never ds or src: Append replaces a history's
	// fields without writing what a copy reaches (History.Clone), so an
	// in-place append to a dataset history runs beside queries that do
	// not name it, and the index sees it only when Refresh re-reads the
	// column.
	ds           *history.Dataset
	ids          []history.AttrID
	src          []*history.History
	cols         []*history.History
	opt          Options
	mT           *bitmatrix.Matrix // columns: Bloom(A[T])
	mR           *bitmatrix.Matrix // columns: Bloom(R_{ε,w}(A)); reverse only
	buildElapsed time.Duration
	// Per-matrix fill times of the build, surfaced via Stats.
	mtBuild, sliceBuild, mrBuild time.Duration
	// baseHorizon is the dataset horizon the index was built over. With
	// opt.Seed it pins slice selection: a reslice at horizon h draws from
	// seed opt.Seed + (h - baseHorizon), so reslicing an unchanged-horizon
	// index reproduces the build's slice choice exactly.
	baseHorizon timeline.Time
	// ss is the slice-pruning state Reslice replaces.
	ss sliceState
	// px is the weighted prefix index reverse queries outside M_R's regime
	// generate their candidates from; built for every index.
	px prefixIndex
	// pool recycles the scratch every query runs on (candidate vectors,
	// arenas).
	pool queryPool
}

// sliceState bundles the time-slice matrices with the observation ends
// their columns were filled to, plus their pruning-power estimates. All
// fields are guarded by Index.mu.
type sliceState struct {
	slices     []timeSlice
	slicePower []float64
	// filled[a] is attribute a's observation end when its slice columns
	// and minimum violation weights were last filled (DESIGN §12).
	filled []timeline.Time
}

// BuildStats reports what Build produced.
type BuildStats struct {
	Attributes int
	Slices     int
	SliceSpans []timeline.Interval
	// MemoryBytes is what the index holds: every matrix with its
	// per-column bit counts, the per-slice minimum violation weights of a
	// reverse-capable index, the per-attribute slice fill ends, and the
	// weighted prefix index.
	MemoryBytes int64
	Elapsed     time.Duration
	// Per-matrix fill times: M_T, all slice matrices combined, and M_R.
	MTBuild, SliceBuild, MRBuild time.Duration
	// Bloom fill ratios (fraction of set bits) per matrix; the knob the
	// paper's m sizing trades against pruning power (§5.4). MRFillRatio
	// is zero for forward-only indices.
	MTFillRatio     float64
	MRFillRatio     float64
	SliceFillRatios []float64
	// Bloom widths m per matrix: M_T's and M_R's are Options.Bloom.M, and
	// each slice matrix has the width its fill folded it to (targetFill).
	// MRBits is zero for forward-only indices.
	MTBits    int
	MRBits    int
	SliceBits []int
	// SlicePruningPower is the estimate p(I) = Σ_A |A[I]| / |I| of
	// Section 4.4.2 for each chosen slice interval.
	SlicePruningPower []float64
}

// Build constructs the index over every attribute of a dataset: BuildOver
// with every id.
func Build(ds *history.Dataset, opt Options) (*Index, error) {
	ids := make([]history.AttrID, ds.Len())
	for i := range ids {
		ids[i] = history.AttrID(i)
	}
	return BuildOver(ds, ids, opt)
}

// BuildOver constructs the index over the attributes of ds that ids names,
// ascending; a shard indexes the ones it owns. Every answer names
// attributes by their dataset ids. The index reads each attribute from its
// own copy of the history, taken here and at the column's Refresh, so an
// append in place reaches queries only through Refresh. The index keeps
// ids; the caller must not modify it. Malformed options or ids are rejected with a typed error
// wrapping ErrInvalidOptions.
func BuildOver(ds *history.Dataset, ids []history.AttrID, opt Options) (*Index, error) {
	start := time.Now()
	if ds.Horizon() > timeline.MaxHorizon {
		return nil, fmt.Errorf("index: dataset horizon %d exceeds the maximum %d", ds.Horizon(), timeline.MaxHorizon)
	}
	opt = opt.withDefaults(ds.Horizon())
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.Params.Weight.Horizon() != ds.Horizon() {
		return nil, fmt.Errorf("%w: weight horizon %d does not match dataset horizon %d",
			ErrInvalidOptions, opt.Params.Weight.Horizon(), ds.Horizon())
	}
	src := make([]*history.History, len(ids))
	attrs := make([]*history.History, len(ids))
	copies := make([]history.History, len(ids))
	for c, id := range ids {
		if id < 0 || int(id) >= ds.Len() || c > 0 && id <= ids[c-1] {
			return nil, fmt.Errorf("%w: attribute ids must ascend within [0,%d), got %d at %d",
				ErrInvalidOptions, ds.Len(), id, c)
		}
		src[c] = ds.Attr(id)
		copies[c] = *src[c]
		attrs[c] = &copies[c]
	}

	idx := &Index{ds: ds, ids: ids, src: src, cols: attrs, opt: opt, baseHorizon: ds.Horizon()}
	n := len(attrs)

	// Each matrix is filled in place, its 64-column blocks in parallel
	// (bitmatrix.FillColumns); set builds attribute h's column values in
	// the worker's buf.
	fillMatrix := func(kind string, dst *time.Duration, set func(h *history.History, buf values.Set) values.Set) *bitmatrix.Matrix {
		t0 := time.Now()
		m := bitmatrix.NewMatrix(opt.Bloom, n)
		m.FillColumns(func(a int, buf values.Set) values.Set { return set(attrs[a], buf) })
		d := time.Since(t0)
		*dst += d
		matrixBuildSeconds(kind).ObserveDuration(d)
		return m
	}

	// M_T over the full value sets. Constructible without knowing any of
	// the three query parameters (Section 4.2.1). It keeps opt.Bloom's
	// width, which top-k's per-version bound needs.
	idx.mT = fillMatrix("m_t", &idx.mtBuild, func(h *history.History, buf values.Set) values.Set {
		return append(buf, h.AllValues()...)
	})

	// Time-slice matrices over A[I^δ], built with the maximum δ queries
	// may use (Section 4.4). Reslice re-runs the same selection and fill.
	idx.ss, idx.sliceBuild = buildTimeSlices(attrs, ds.Horizon(), opt,
		rand.New(rand.NewSource(opt.Seed)))

	// M_R over required values, for reverse search (Section 4.5). Its ε
	// and w must be the maximum/assumed query parameters. It keeps
	// opt.Bloom's width: Refresh only adds required values to it and no
	// pass sizes it again, so a fold at Build would be kept for good.
	if opt.Reverse {
		idx.mR = fillMatrix("m_r", &idx.mrBuild, func(h *history.History, buf values.Set) values.Set {
			return core.AppendRequiredValues(buf, h, opt.Params.Epsilon, opt.Params.Weight)
		})
	}
	idx.px = buildPrefix(attrs, opt.Params.Weight)
	idx.buildElapsed = time.Since(start)
	mBuildSeconds.ObserveDuration(idx.buildElapsed)
	return idx, nil
}

// targetFill is the fill ratio a slice matrix is folded down to: filled
// at Options.Bloom.M, it halves while the half-width matrix has at most
// this share of its bits set (fitWidth). On the C8k corpus the slices
// fill 0.63–0.71 % at 4 096 bits and land at 1 024 (2.5–2.7 %); any value
// in 2.8–5 % picks that width (DESIGN §5).
const targetFill = 0.04

// fitWidth folds m in half while the folded matrix fills at most
// targetFill. A fold equals a fill at the half width (Matrix.Fold), so the
// result is the matrix a direct fill at its width would give.
func fitWidth(m *bitmatrix.Matrix) *bitmatrix.Matrix {
	for m.CanFold() && m.FoldedFillRatio() <= targetFill {
		m = m.Fold()
	}
	return m
}

// buildTimeSlices selects slice intervals over the attributes and fills
// their Bloom matrices, each folded to its own width (fitWidth) — and,
// for reverse-capable indices, the per-slice minimum violation weights —
// recording each attribute's observation end.
// Only reverse-capable indices need the stronger δ-expanded disjointness
// of the slice intervals (§4.5). Build and Reslice call it with the
// index's own attributes while no query can read them.
func buildTimeSlices(attrs []*history.History, horizon timeline.Time, opt Options,
	rng *rand.Rand) (sliceState, time.Duration) {
	var elapsed time.Duration
	disjointDelta := timeline.Time(0)
	if opt.Reverse {
		disjointDelta = opt.Params.Delta
	}
	ivs := selectSlices(attrs, horizon, opt.Params.Weight, opt.Params.Epsilon, disjointDelta,
		opt.Slices, opt.Strategy, rng)
	var ss sliceState
	for _, iv := range ivs {
		t0 := time.Now()
		ts := timeSlice{iv: iv, matrix: bitmatrix.NewMatrix(opt.Bloom, len(attrs))}
		if opt.Reverse {
			ts.minVio = make([]float64, len(attrs))
		}
		window := ts.window(opt)
		ts.matrix.FillColumns(func(a int, buf values.Set) values.Set {
			if ts.minVio != nil {
				ts.minVio[a] = minViolationWeight(attrs[a], window, opt.Params.Weight)
			}
			return attrs[a].AppendUnion(buf, window)
		})
		ts.matrix = fitWidth(ts.matrix)
		d := time.Since(t0)
		elapsed += d
		matrixBuildSeconds("slice").ObserveDuration(d)
		ss.slices = append(ss.slices, ts)
		ss.slicePower = append(ss.slicePower, slicePruningPower(attrs, iv))
	}
	ss.filled = make([]timeline.Time, len(attrs))
	for a, h := range attrs {
		ss.filled[a] = h.ObservedUntil()
	}
	return ss, elapsed
}

// window returns I^δ, the interval the slice's columns summarise, with δ
// the maximum the index serves.
func (ts timeSlice) window(opt Options) timeline.Interval {
	return ts.iv.Expand(opt.Params.Delta)
}

// refill brings the changed columns of the slices up to date with their
// histories in cols. Histories only change on days at or after the end
// the columns were filled to, so a slice whose I^δ ends at or before it is
// skipped, and the others need only the values of I^δ's days from that
// end on: A[I^δ] is the old set plus those, and a column's Bloom filter is
// the OR of its parts. The minimum violation weight is recomputed whole,
// since the version valid at the old end may have grown. Slices are the
// outer loop so one matrix's rows stay in cache across the attributes.
func (ss *sliceState) refill(changed []int, cols []*history.History, opt Options) {
	for _, ts := range ss.slices {
		window := ts.window(opt)
		for _, c := range changed {
			if end := ss.filled[c]; window.End > end {
				h := cols[c]
				fresh := timeline.NewInterval(max(window.Start, end), window.End)
				ts.matrix.SetColumn(c, bloom.FromSet(ts.matrix.Params(), h.Union(fresh)))
				if ts.minVio != nil {
					ts.minVio[c] = minViolationWeight(h, window, opt.Params.Weight)
				}
			}
		}
	}
	for _, c := range changed {
		ss.filled[c] = cols[c].ObservedUntil()
	}
}

// slicePruningPower computes p(I) = Σ_A |A[I]| / |I| (Section 4.4.2) for
// a chosen slice, subsampling large corpora the same way slice selection
// does.
func slicePruningPower(attrs []*history.History, iv timeline.Interval) float64 {
	if iv.Len() <= 0 {
		return 0
	}
	const maxAttrs = 2000
	stride := 1
	if len(attrs) > maxAttrs {
		stride = len(attrs) / maxAttrs
	}
	distinct := 0
	for a := 0; a < len(attrs); a += stride {
		distinct += attrs[a].DistinctValuesIn(iv)
	}
	return float64(distinct) * float64(stride) / float64(iv.Len())
}

// parallelFor calls f(i) once for every i in [0, n) on up to GOMAXPROCS
// goroutines, which claim indices with one atomic add, and returns when
// all calls have.
func parallelFor(n int, f func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := range n {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// minViolationWeight computes the minimum violation weight a reverse
// query may safely account for a violation of h detected in the expanded
// slice interval: the Bloom filter cannot reveal which version of A
// violated, so only the cheapest version sub-interval within I^δ is
// guaranteed (Section 4.5). It is 0 when h is unobservable in I^δ:
// nothing is provable there. It walks back from the newest version, the
// end Refresh touches, and stops at the first one that ends before I^δ.
func minViolationWeight(h *history.History, expanded timeline.Interval, w timeline.WeightFunc) float64 {
	best := -1.0
	for v := h.NumVersions() - 1; v >= 0 && h.ValidUntil(v) > expanded.Start; v-- {
		overlap := h.Validity(v).Intersect(expanded)
		if overlap.IsEmpty() {
			continue
		}
		if ws := w.Sum(overlap); best < 0 || ws < best {
			best = ws
		}
	}
	return max(best, 0)
}

// Stats summarizes the built index.
func (x *Index) Stats() BuildStats {
	x.mu.RLock()
	defer x.mu.RUnlock()
	s := BuildStats{Attributes: len(x.cols), Slices: len(x.ss.slices)}
	s.MemoryBytes = x.mT.MemoryBytes()
	s.MTFillRatio, s.MTBits = x.mT.FillRatio(), x.mT.Params().M
	for _, ts := range x.ss.slices {
		s.SliceSpans = append(s.SliceSpans, ts.iv)
		s.MemoryBytes += ts.matrix.MemoryBytes() + int64(len(ts.minVio))*8
		s.SliceFillRatios = append(s.SliceFillRatios, ts.matrix.FillRatio())
		s.SliceBits = append(s.SliceBits, ts.matrix.Params().M)
	}
	s.MemoryBytes += int64(len(x.ss.filled)) * 8 // one timeline.Time (an int) each
	if x.mR != nil {
		s.MemoryBytes += x.mR.MemoryBytes()
		s.MRFillRatio, s.MRBits = x.mR.FillRatio(), x.mR.Params().M
	}
	s.MemoryBytes += x.px.memoryBytes()
	s.Elapsed = x.buildElapsed
	s.MTBuild, s.SliceBuild, s.MRBuild = x.mtBuild, x.sliceBuild, x.mrBuild
	s.SlicePruningPower = append([]float64(nil), x.ss.slicePower...)
	return s
}

// Dataset returns the dataset the indexed attributes belong to.
func (x *Index) Dataset() *history.Dataset { return x.ds }

// column returns the column of dataset attribute id, reporting whether the
// index holds it.
func (x *Index) column(id history.AttrID) (int, bool) {
	return slices.BinarySearch(x.ids, id)
}

// Options returns the options the index was built with (including the
// current weight horizon, which Refresh advances).
func (x *Index) Options() Options {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.opt
}
