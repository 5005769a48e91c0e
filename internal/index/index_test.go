package index

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/timeline"
	"tind/internal/values"
)

// randDataset builds a small random dataset. Attribute value universes
// overlap heavily so that genuine containments occur.
func randDataset(r *rand.Rand, nAttrs int, horizon timeline.Time) *history.Dataset {
	ds := history.NewDataset(horizon)
	for i := 0; i < nAttrs; i++ {
		b := history.NewBuilder(history.Meta{Page: "p", Column: string(rune('a' + i%26))})
		t := timeline.Time(r.Intn(int(horizon) / 2))
		// Larger attributes are built from a bigger value range; some are
		// near-constant, some churn.
		rangeSize := 4 + r.Intn(16)
		for {
			card := 1 + r.Intn(rangeSize)
			ids := make([]values.Value, card)
			for j := range ids {
				ids[j] = values.Value(r.Intn(rangeSize))
			}
			b.Observe(t, values.NewSet(ids...))
			t += timeline.Time(1 + r.Intn(int(horizon)/4))
			if t >= horizon-1 {
				break
			}
		}
		h, err := b.Build(horizon)
		if err != nil {
			panic(err)
		}
		if _, err := ds.Add(h); err != nil {
			panic(err)
		}
	}
	return ds
}

func bruteSearch(ds *history.Dataset, q *history.History, p core.Params) []history.AttrID {
	var out []history.AttrID
	for _, a := range ds.Attrs() {
		if a == q {
			continue
		}
		if core.Holds(q, a, p) {
			out = append(out, a.ID())
		}
	}
	return out
}

func bruteReverse(ds *history.Dataset, q *history.History, p core.Params) []history.AttrID {
	var out []history.AttrID
	for _, a := range ds.Attrs() {
		if a == q {
			continue
		}
		if core.Holds(a, q, p) {
			out = append(out, a.ID())
		}
	}
	return out
}

func idsEqual(a, b []history.AttrID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func buildTestIndex(t testing.TB, ds *history.Dataset, opt Options) *Index {
	t.Helper()
	idx, err := Build(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestSearchMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		horizon := timeline.Time(40 + r.Intn(60))
		ds := randDataset(r, 5+r.Intn(25), horizon)
		idxParams := core.Params{
			Epsilon: float64(r.Intn(8)),
			Delta:   timeline.Time(r.Intn(6)),
			Weight:  timeline.Uniform(horizon),
		}
		opt := Options{
			Bloom:    bloom.Params{M: 64 * (1 + r.Intn(4)), K: 1 + r.Intn(2)},
			Slices:   r.Intn(6),
			Strategy: SliceStrategy(r.Intn(2)),
			Params:   idxParams,
			Seed:     seed,
		}
		idx, err := Build(ds, opt)
		if err != nil {
			return false
		}
		// Query with parameters at or below the index bounds.
		qp := core.Params{
			Epsilon: r.Float64() * 8,
			Delta:   timeline.Time(r.Intn(int(idxParams.Delta) + 1)),
			Weight:  timeline.Uniform(horizon),
		}
		for trial := 0; trial < 3; trial++ {
			q := ds.Attr(history.AttrID(r.Intn(ds.Len())))
			res, err := idx.Search(q, qp)
			if err != nil {
				return false
			}
			if !idsEqual(res.IDs, bruteSearch(ds, q, qp)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchWithDecayWeights(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	horizon := timeline.Time(80)
	ds := randDataset(r, 20, horizon)
	idx := buildTestIndex(t, ds, Options{
		Bloom:  bloom.Params{M: 256, K: 2},
		Slices: 4,
		Params: core.DefaultDays(horizon),
		Seed:   1,
	})
	w, err := timeline.NewExponentialDecay(horizon, 0.97)
	if err != nil {
		t.Fatal(err)
	}
	// Forward search supports arbitrary query weight functions.
	qp := core.Params{Epsilon: 0.5, Delta: 3, Weight: w}
	for i := 0; i < ds.Len(); i++ {
		q := ds.Attr(history.AttrID(i))
		res, err := idx.Search(q, qp)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteSearch(ds, q, qp); !idsEqual(res.IDs, want) {
			t.Fatalf("q=%d: got %v, want %v", i, res.IDs, want)
		}
	}
}

func TestSearchLargerQueryDeltaFallsBack(t *testing.T) {
	// Query δ greater than the index δ must disable slice pruning yet
	// stay exact (Section 4.4).
	r := rand.New(rand.NewSource(3))
	horizon := timeline.Time(60)
	ds := randDataset(r, 15, horizon)
	idxParams := core.Params{Epsilon: 2, Delta: 2, Weight: timeline.Uniform(horizon)}
	idx := buildTestIndex(t, ds, Options{
		Bloom: bloom.Params{M: 256, K: 2}, Slices: 4, Params: idxParams, Seed: 2,
	})
	qp := core.Params{Epsilon: 2, Delta: 10, Weight: timeline.Uniform(horizon)}
	for i := 0; i < ds.Len(); i++ {
		q := ds.Attr(history.AttrID(i))
		res, err := idx.Search(q, qp)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.SlicesUsed != 0 {
			t.Fatal("slice pruning must be disabled for query δ > index δ")
		}
		if want := bruteSearch(ds, q, qp); !idsEqual(res.IDs, want) {
			t.Fatalf("q=%d: got %v, want %v", i, res.IDs, want)
		}
	}
}

func TestReverseMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		horizon := timeline.Time(40 + r.Intn(40))
		ds := randDataset(r, 5+r.Intn(20), horizon)
		idxParams := core.Params{
			Epsilon: 1 + float64(r.Intn(6)),
			Delta:   timeline.Time(r.Intn(5)),
			Weight:  timeline.Uniform(horizon),
		}
		idx, err := Build(ds, Options{
			Bloom:    bloom.Params{M: 128, K: 2},
			Slices:   r.Intn(5),
			Strategy: WeightedRandom,
			Params:   idxParams,
			Reverse:  true,
			Seed:     seed,
		})
		if err != nil {
			return false
		}
		// Query ε at or below the index ε, same weight function.
		qp := core.Params{
			Epsilon: r.Float64() * idxParams.Epsilon,
			Delta:   timeline.Time(r.Intn(int(idxParams.Delta) + 1)),
			Weight:  timeline.Uniform(horizon),
		}
		for trial := 0; trial < 3; trial++ {
			q := ds.Attr(history.AttrID(r.Intn(ds.Len())))
			res, err := idx.Reverse(q, qp)
			if err != nil {
				return false
			}
			if !idsEqual(res.IDs, bruteReverse(ds, q, qp)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestReverseLargerEpsilonFallsBack(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	horizon := timeline.Time(50)
	ds := randDataset(r, 12, horizon)
	idxParams := core.Params{Epsilon: 1, Delta: 2, Weight: timeline.Uniform(horizon)}
	idx := buildTestIndex(t, ds, Options{
		Bloom: bloom.Params{M: 128, K: 2}, Slices: 2, Params: idxParams, Reverse: true, Seed: 4,
	})
	// ε above the index bound: M_R pruning unusable, result must stay exact.
	qp := core.Params{Epsilon: 10, Delta: 2, Weight: timeline.Uniform(horizon)}
	for i := 0; i < ds.Len(); i++ {
		q := ds.Attr(history.AttrID(i))
		res, err := idx.Reverse(q, qp)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteReverse(ds, q, qp); !idsEqual(res.IDs, want) {
			t.Fatalf("q=%d: got %v, want %v", i, res.IDs, want)
		}
	}
}

func TestReverseWithoutReverseIndex(t *testing.T) {
	// An index built without Reverse must still answer reverse queries
	// exactly (candidates from the weighted prefix index).
	r := rand.New(rand.NewSource(13))
	horizon := timeline.Time(40)
	ds := randDataset(r, 10, horizon)
	idx := buildTestIndex(t, ds, Options{
		Bloom: bloom.Params{M: 128, K: 2}, Slices: 3, Params: core.DefaultDays(horizon), Seed: 5,
	})
	qp := core.Params{Epsilon: 2, Delta: 1, Weight: timeline.Uniform(horizon)}
	q := ds.Attr(0)
	res, err := idx.Reverse(q, qp)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteReverse(ds, q, qp); !idsEqual(res.IDs, want) {
		t.Fatalf("got %v, want %v", res.IDs, want)
	}
}

func TestAdHocQueryAttribute(t *testing.T) {
	// A query attribute that is not part of the dataset must work and
	// must not suppress attribute 0.
	r := rand.New(rand.NewSource(17))
	horizon := timeline.Time(40)
	ds := randDataset(r, 8, horizon)
	idx := buildTestIndex(t, ds, Options{
		Bloom: bloom.Params{M: 256, K: 2}, Slices: 2, Params: core.DefaultDays(horizon), Seed: 6,
	})
	// Empty-ish query contained everywhere: single version, subset of
	// attr 0's first version.
	a0 := ds.Attr(0)
	first := a0.Version(0).Values
	if first.Len() == 0 {
		t.Skip("attr 0 begins empty")
	}
	b := history.NewBuilder(history.Meta{Page: "adhoc"})
	b.Observe(a0.ObservedFrom(), values.NewSet(first[0]))
	q, err := b.Build(a0.ObservedFrom() + 1)
	if err != nil {
		t.Fatal(err)
	}
	qp := core.Params{Epsilon: 0, Delta: 0, Weight: timeline.Uniform(horizon)}
	res, err := idx.Search(q, qp)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteSearch(ds, q, qp); !idsEqual(res.IDs, want) {
		t.Fatalf("got %v, want %v", res.IDs, want)
	}
	found := false
	for _, id := range res.IDs {
		if id == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("attribute 0 must be a result for a query contained in it")
	}
}

func TestAllPairsMatchesPerQuerySearch(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	horizon := timeline.Time(60)
	ds := randDataset(r, 20, horizon)
	idx := buildTestIndex(t, ds, Options{
		Bloom: bloom.Params{M: 256, K: 2}, Slices: 4, Params: core.DefaultDays(horizon), Seed: 7,
	})
	p := core.Params{Epsilon: 3, Delta: 2, Weight: timeline.Uniform(horizon)}
	pairs, err := idx.AllPairsContext(context.Background(), p, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[Pair]bool, len(pairs))
	for _, pr := range pairs {
		if got[pr] {
			t.Fatalf("duplicate pair %v", pr)
		}
		got[pr] = true
	}
	want := 0
	for i := 0; i < ds.Len(); i++ {
		q := ds.Attr(history.AttrID(i))
		for _, rhs := range bruteSearch(ds, q, p) {
			want++
			if !got[Pair{LHS: q.ID(), RHS: rhs}] {
				t.Fatalf("missing pair %d ⊆ %d", q.ID(), rhs)
			}
		}
	}
	if len(pairs) != want {
		t.Fatalf("got %d pairs, want %d", len(pairs), want)
	}
}

func TestSliceSelectionInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		horizon := timeline.Time(30 + r.Intn(200))
		ds := randDataset(r, 4+r.Intn(10), horizon)
		eps := float64(r.Intn(10))
		delta := timeline.Time(r.Intn(8))
		w := timeline.Uniform(horizon)
		k := r.Intn(10)
		ivs := selectSlices(ds.Attrs(), ds.Horizon(), w, eps, delta, k, SliceStrategy(r.Intn(2)), r)
		if len(ivs) > k {
			return false
		}
		for i, iv := range ivs {
			if iv.Start < 0 || iv.End > horizon || iv.IsEmpty() {
				return false
			}
			// Standard length: w(I) ≥ ε+1 (Section 4.4.1).
			if w.Sum(iv) < eps+1 {
				return false
			}
			// Sorted and δ-expanded disjoint.
			if i > 0 {
				if ivs[i-1].Start >= iv.Start {
					return false
				}
				if ivs[i-1].Expand(delta).Overlaps(iv.Expand(delta)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSliceLength(t *testing.T) {
	w := timeline.Uniform(100)
	if got := sliceLength(w, 3, 10); got != 4 {
		t.Fatalf("uniform ε=3: length = %d, want 4", got)
	}
	if got := sliceLength(w, 0, 99); got != 1 {
		t.Fatalf("ε=0 at the edge: length = %d, want 1", got)
	}
	if got := sliceLength(w, 5, 97); got != 0 {
		t.Fatalf("infeasible slice must return 0, got %d", got)
	}
	// Decaying weights: early starts need longer intervals.
	e, err := timeline.NewExponentialDecay(100, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	early := sliceLength(e, 0.5, 5)
	late := sliceLength(e, 0.5, 80)
	if early == 0 || late == 0 || early <= late {
		t.Fatalf("early interval (%d) must be longer than late (%d) under decay", early, late)
	}
}

func TestBuildValidation(t *testing.T) {
	ds := history.NewDataset(10)
	if _, err := Build(ds, Options{Bloom: bloom.Params{M: 100, K: 1}}); err == nil {
		t.Error("invalid bloom params must fail")
	}
	if _, err := Build(ds, Options{
		Bloom:  bloom.Params{M: 64, K: 1},
		Params: core.Params{Epsilon: 0, Delta: 0, Weight: timeline.Uniform(99)},
	}); err == nil {
		t.Error("mismatched weight horizon must fail")
	}
	if _, err := Build(history.NewDataset(timeline.MaxHorizon+1), Options{}); err == nil {
		t.Error("horizon beyond timeline.MaxHorizon must fail")
	}
	// Nil weight defaults to the paper's settings.
	idx, err := Build(ds, Options{Bloom: bloom.Params{M: 64, K: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Options().Params.Weight == nil {
		t.Error("defaulted params must be materialized")
	}
}

func TestStatsAndMemory(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	ds := randDataset(r, 10, 60)
	idx := buildTestIndex(t, ds, Options{
		Bloom: bloom.Params{M: 128, K: 2}, Slices: 3,
		Params: core.DefaultDays(60), Reverse: true, Seed: 8,
	})
	st := idx.Stats()
	if st.Attributes != 10 {
		t.Fatalf("Attributes = %d", st.Attributes)
	}
	if st.Slices != len(st.SliceSpans) {
		t.Fatal("slice count mismatch")
	}
	// (k+1) matrices plus M_R, the reverse minimum violation weights of
	// every slice, one slice fill end per attribute, and the prefix index:
	// one 16-byte entry (column, version, validity) per non-empty version,
	// an offset and a frequency per value id (plus the closing offset), an
	// indexed count, an observation end, a maximum violation and an order
	// position per attribute.
	perMatrix := int64(128*8 + 10*4) // 128 rows × 1 word × 8 bytes + 10 column counts
	perSlice := int64(10 * 8)        // one float64 per attribute
	fillEnds := int64(10 * 8)        // one timeline.Time per attribute
	var entries, valueIDs int64
	for _, h := range ds.Attrs() {
		for i := range h.NumVersions() {
			if !h.Version(i).Values.IsEmpty() {
				entries++
			}
		}
		all := h.AllValues()
		valueIDs = max(valueIDs, int64(all[len(all)-1])+1)
	}
	prefix := entries*16 + valueIDs*(4+2) + 4 + 10*(4+4+8+4)
	if want := perMatrix*int64(st.Slices+2) + perSlice*int64(st.Slices) + fillEnds + prefix; st.MemoryBytes != want {
		t.Fatalf("MemoryBytes = %d, want %d", st.MemoryBytes, want)
	}
	if st.Elapsed <= 0 {
		t.Fatal("Elapsed must be positive")
	}
}

func TestQueryStatsPlausible(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	ds := randDataset(r, 30, 80)
	idx := buildTestIndex(t, ds, Options{
		Bloom: bloom.Params{M: 512, K: 2}, Slices: 4, Params: core.DefaultDays(80), Seed: 9,
	})
	q := ds.Attr(0)
	res, err := idx.Search(q, core.DefaultDays(80))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.AfterSlices > s.InitialCandidates || s.AfterSubsetCheck > s.AfterSlices ||
		s.Validated != s.AfterSubsetCheck || s.Results > s.Validated {
		t.Fatalf("stats not monotone: %+v", s)
	}
	if s.Elapsed <= 0 {
		t.Fatal("Elapsed must be positive")
	}
}

func TestSameWeight(t *testing.T) {
	u1, u2 := timeline.Uniform(10), timeline.Uniform(10)
	if !sameWeight(u1, u2) {
		t.Error("identical uniforms must compare equal")
	}
	if sameWeight(u1, timeline.Uniform(11)) {
		t.Error("different horizons must differ")
	}
	p1, _ := timeline.NewPrefixSum([]float64{1, 2})
	p2, _ := timeline.NewPrefixSum([]float64{1, 2})
	if sameWeight(p1, p2) {
		t.Error("distinct custom tables must be treated as different")
	}
	if !sameWeight(p1, p1) {
		t.Error("same pointer must compare equal")
	}
}

func TestSliceStrategyString(t *testing.T) {
	if Random.String() != "random" || WeightedRandom.String() != "weighted-random" {
		t.Fatal("strategy names wrong")
	}
	if SliceStrategy(9).String() == "" {
		t.Fatal("unknown strategy must render")
	}
}
