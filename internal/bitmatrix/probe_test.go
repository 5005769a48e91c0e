package bitmatrix

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tind/internal/bloom"
	"tind/internal/values"
)

// The probes are checked against a reference that is not themselves: the
// per-column Bloom filters the matrix was filled from, compared with
// Filter.SubsetOf column by column.

// universe is the value range columns and queries draw from; small enough
// that genuine filter containments occur in both directions.
const universe = 200

func randomFilter(rng *rand.Rand, p bloom.Params, nValues int) *bloom.Filter {
	f := bloom.New(p)
	for v := 0; v < nValues; v++ {
		f.Add(values.Value(rng.Intn(universe)))
	}
	return f
}

// saturated returns a filter with every bit set.
func saturated(p bloom.Params) *bloom.Filter {
	f := bloom.New(p)
	for v := 0; f.PopCount() < p.M; v++ {
		f.Add(values.Value(v))
	}
	return f
}

// randomMatrix fills a matrix from random value-set columns and returns it
// with the filter each column must equal. Every seventh column stays
// empty, and every fifth is written twice with overlapping filters — the
// idempotent re-add of an index refresh — whose union is the reference.
func randomMatrix(rng *rand.Rand, p bloom.Params, n int) (*Matrix, []*bloom.Filter) {
	m := NewMatrix(p, n)
	cols := make([]*bloom.Filter, n)
	for c := range cols {
		cols[c] = bloom.New(p)
		if c%7 == 3 {
			continue
		}
		f := randomFilter(rng, p, 1+rng.Intn(12))
		m.SetColumn(c, f)
		cols[c].UnionWith(f)
		if c%5 == 0 {
			g := f.Clone()
			g.Add(values.Value(rng.Intn(universe)))
			m.SetColumn(c, g)
			m.SetColumn(c, f)
			cols[c].UnionWith(g)
		}
	}
	return m, cols
}

// randomQueries covers the probe's query shapes: empty, saturated, sparse
// (more zero rows than set rows: the bit-count test finishes subsets),
// dense (fewer zero rows than set rows: the zero-row test does), and
// filters that genuinely contain or are contained in columns.
func randomQueries(rng *rand.Rand, p bloom.Params, cols []*bloom.Filter) []*bloom.Filter {
	qs := []*bloom.Filter{bloom.New(p), saturated(p)}
	for i := 0; i < 3; i++ {
		qs = append(qs, randomFilter(rng, p, 1+rng.Intn(3)), randomFilter(rng, p, 1+rng.Intn(8)))
	}
	qs = append(qs, randomFilter(rng, p, universe/2), randomFilter(rng, p, 2*universe))
	for i := 0; i < 3; i++ {
		qs = append(qs, cols[rng.Intn(len(cols))].Clone())
		u := cols[rng.Intn(len(cols))].Clone()
		for j := 0; j < 4; j++ {
			u.UnionWith(cols[rng.Intn(len(cols))])
		}
		qs = append(qs, u)
	}
	return qs
}

// randomBases returns candidate sets on both sides of the point where a
// probe turns per-column: nil, empty, one column, the sparse limit and its
// neighbours, dense and full.
func randomBases(rng *rand.Rand, m *Matrix) []*Vec {
	n := m.Columns()
	pick := func(k int) *Vec {
		v := NewVec(n)
		for _, c := range rng.Perm(n)[:max(0, min(k, n))] {
			v.Set(c)
		}
		return v
	}
	limit := m.stride
	return []*Vec{nil, NewVec(n), pick(1), pick(limit - 1), pick(limit), pick(limit + 1),
		pick(n * 2 / 3), NewVecFull(n)}
}

// checkProbes compares the three kernels with the per-column reference for
// one query and base. out arrives holding the previous call's bits, so a
// kernel that fails to overwrite it is caught too.
func checkProbes(t *testing.T, m *Matrix, cols []*bloom.Filter, q *bloom.Filter, base, out *Vec, buf []int) []int {
	t.Helper()
	verify := func(kernel string, want func(c int) bool) {
		t.Helper()
		for c := range cols {
			if w := (base == nil || base.Get(c)) && want(c); out.Get(c) != w {
				t.Fatalf("%s: column %d of %d (bits %d, query bits %d, base %s) = %v, want %v",
					kernel, c, len(cols), cols[c].PopCount(), q.PopCount(), describe(base), out.Get(c), w)
			}
		}
		if tail := out.Count() - len(out.AppendOnes(buf[:0])); tail != 0 {
			t.Fatalf("%s: ghost columns beyond %d", kernel, len(cols))
		}
	}
	buf = m.SupersetsInto(q, base, out, buf)
	verify("SupersetsInto", func(c int) bool { return q.SubsetOf(cols[c]) })
	buf = m.SubsetsInto(q, base, out, buf)
	verify("SubsetsInto", func(c int) bool { return cols[c].SubsetOf(q) })
	if base != nil {
		buf = m.ViolatorsInto(q, base, out, buf)
		verify("ViolatorsInto", func(c int) bool { return !cols[c].SubsetOf(q) })
	}
	return buf
}

func describe(base *Vec) string {
	if base == nil {
		return "nil"
	}
	return fmt.Sprint(base.Count())
}

// TestProbesMatchFilterReference is the property test of the probe
// kernels: column counts on both sides of the dense/sparse switch, every
// base and query shape, columns without bits and columns written twice.
func TestProbesMatchFilterReference(t *testing.T) {
	for _, tc := range []struct {
		n int
		p bloom.Params
	}{
		{40, bloom.Params{M: 256, K: 2}},
		{1000, bloom.Params{M: 256, K: 2}},
		{1000, bloom.Params{M: 1024, K: 3}},
		{20000, bloom.Params{M: 256, K: 2}},
	} {
		t.Run(fmt.Sprintf("n=%d/m=%d", tc.n, tc.p.M), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n + tc.p.M)))
			m, cols := randomMatrix(rng, tc.p, tc.n)
			for c, f := range cols {
				if int(m.counts[c]) != f.PopCount() {
					t.Fatalf("column %d: count %d, filter has %d bits", c, m.counts[c], f.PopCount())
				}
			}
			out := NewVecFull(tc.n)
			var buf []int
			for _, q := range randomQueries(rng, tc.p, cols) {
				for _, base := range randomBases(rng, m) {
					buf = checkProbes(t, m, cols, q, base, out, buf)
				}
			}
		})
	}
}

// FuzzProbeEquivalence drives the same comparison from fuzzed shapes: the
// column count, the size of the base and the density of the query.
func FuzzProbeEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(40), uint16(2), uint16(3))
	f.Add(int64(2), uint16(1000), uint16(33), uint16(1))
	f.Add(int64(3), uint16(1000), uint16(1000), uint16(400))
	f.Add(int64(4), uint16(3000), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, n, baseSize, queryValues uint16) {
		if n == 0 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		p := bloom.Params{M: 64 * (1 + int(seed&3)), K: 1 + int(seed>>2&1)}
		m, cols := randomMatrix(rng, p, int(n))
		q := randomFilter(rng, p, int(queryValues))
		base := NewVec(int(n))
		for _, c := range rng.Perm(int(n))[:min(int(baseSize), int(n))] {
			base.Set(c)
		}
		out := NewVecFull(int(n))
		buf := checkProbes(t, m, cols, q, base, out, nil)
		checkProbes(t, m, cols, q, nil, out, buf)
	})
}

// TestBatchSweepsMatchSingle pins the row-major batch sweep to the same
// per-column reference, and its counters to what they claim to count.
func TestBatchSweepsMatchSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := bloom.Params{M: 256, K: 2}
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(130)
		m, cols := randomMatrix(rng, p, n)
		qs := make([]*bloom.Filter, 1+rng.Intn(9))
		wantHits := 0
		for i := range qs {
			qs[i] = randomFilter(rng, p, 1+rng.Intn(8))
			wantHits += qs[i].PopCount()
		}
		outs := make([]*Vec, len(qs))
		for i := range outs {
			outs[i] = NewVecFull(n)
		}
		loads, hits := m.SupersetsBatch(qs, outs)
		if loads == 0 || loads > hits || hits != wantHits {
			t.Fatalf("trial %d: sweep counters loads=%d hits=%d, want hits=%d", trial, loads, hits, wantHits)
		}
		for i, q := range qs {
			for c := range cols {
				if want := q.SubsetOf(cols[c]); outs[i].Get(c) != want {
					t.Fatalf("trial %d query %d column %d: SupersetsBatch = %v, want %v", trial, i, c, !want, want)
				}
			}
		}
	}
}

func TestVecScratchHelpers(t *testing.T) {
	v := NewVec(70)
	v.Set(3)
	v.Set(69)
	if got := v.AppendOnes(nil); len(got) != 2 || got[0] != 3 || got[1] != 69 {
		t.Fatalf("AppendOnes = %v", got)
	}
	buf := make([]int, 0, 4)
	if got := v.AppendOnes(buf); len(got) != 2 {
		t.Fatalf("AppendOnes into buf = %v", got)
	}
	v.Fill()
	if v.Count() != 70 {
		t.Fatalf("Fill: count = %d, want 70", v.Count())
	}
	v.Reset()
	if v.Count() != 0 {
		t.Fatalf("Reset: count = %d, want 0", v.Count())
	}
	o := NewVec(70)
	o.Set(5)
	v.CopyFrom(o)
	if v.Count() != 1 || !v.Get(5) {
		t.Fatalf("CopyFrom: wrong bits")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("CopyFrom with mismatched lengths did not panic")
		}
	}()
	v.CopyFrom(NewVec(64))
}

// checkViolators compares ViolatorsInto with the per-column reference for
// one query and base; a nil base means every column.
func checkViolators(t *testing.T, m *Matrix, cols []*bloom.Filter, q *bloom.Filter, base, out *Vec, buf []int) []int {
	t.Helper()
	buf = m.ViolatorsInto(q, base, out, buf)
	want := 0
	for c := range cols {
		w := (base == nil || base.Get(c)) && !cols[c].SubsetOf(q)
		if out.Get(c) != w {
			t.Fatalf("ViolatorsInto: column %d of %d (bits %d, query bits %d, base %s) = %v, want %v",
				c, len(cols), cols[c].PopCount(), q.PopCount(), describe(base), out.Get(c), w)
		}
		if w {
			want++
		}
	}
	if got := out.Count(); got != want {
		t.Fatalf("ViolatorsInto: %d columns set, %d of them beyond %d", got, got-want, len(cols))
	}
	return buf
}

// TestViolatorsNilBaseIsEveryColumn holds ViolatorsInto to what the other
// two kernels read a nil base as: every column, and no bit beyond them.
func TestViolatorsNilBaseIsEveryColumn(t *testing.T) {
	p := bloom.Params{M: 256, K: 2}
	for _, n := range []int{40, 1000, 20000} {
		rng := rand.New(rand.NewSource(int64(n)))
		m, cols := randomMatrix(rng, p, n)
		out := NewVecFull(n)
		var buf []int
		for _, q := range randomQueries(rng, p, cols) {
			buf = checkViolators(t, m, cols, q, nil, out, buf)
		}
	}
}

// rarer orders rows as the subset keys rank them: by their number of set
// bits, ties by row.
func rarer(pop []int, a, b int) bool { return pop[a] < pop[b] || pop[a] == pop[b] && a < b }

// TestSubsetKeysSurviveColumnGrowth grows columns after the subset keys
// were derived — an empty column gains bits, and another gains a bit in a
// row sparser than the one it is keyed on — and holds every kernel on
// every base shape to the per-column reference of the grown filters.
func TestSubsetKeysSurviveColumnGrowth(t *testing.T) {
	p := bloom.Params{M: 1024, K: 2}
	const n = 1000
	rng := rand.New(rand.NewSource(11))
	m, cols := randomMatrix(rng, p, n)
	out := NewVecFull(n)
	buf := m.SubsetsInto(cols[0], nil, out, nil)
	if m.keys.start == nil {
		t.Fatal("a nil-base subset probe did not derive the keys")
	}
	pop := make([]int, p.M)
	for _, f := range cols {
		for _, b := range f.SetBits(nil) {
			pop[b]++
		}
	}

	const empty = 3 // randomMatrix leaves every seventh column from 3 on empty
	if cols[empty].PopCount() != 0 {
		t.Fatalf("column %d has %d bits, want none", empty, cols[empty].PopCount())
	}
	f := randomFilter(rng, p, 5)
	m.SetColumn(empty, f)
	cols[empty].UnionWith(f)

	grown := 1
	key := -1
	for _, b := range cols[grown].SetBits(nil) {
		if key < 0 || rarer(pop, b, key) {
			key = b
		}
	}
	if key < 0 {
		t.Fatalf("column %d has no bits", grown)
	}
	g := bloom.New(p)
	for v := universe; g.PopCount() == 0; v++ {
		h := bloom.New(p)
		h.Add(values.Value(v))
		for _, b := range h.SetBits(nil) {
			if rarer(pop, b, key) && !cols[grown].Bit(b) {
				g = h
			}
		}
	}
	m.SetColumn(grown, g)
	cols[grown].UnionWith(g)

	both := cols[empty].Clone()
	both.UnionWith(cols[grown])
	qs := append(randomQueries(rng, p, cols), cols[empty].Clone(), cols[grown].Clone(), both)
	for _, q := range qs {
		for _, base := range randomBases(rng, m) {
			buf = checkProbes(t, m, cols, q, base, out, buf)
			buf = checkViolators(t, m, cols, q, base, out, buf)
		}
	}
}

// TestConcurrentFirstSubsetProbes issues the first dense subset probes of
// a fresh matrix from many goroutines at once: they derive the keys once
// between them (run it under -race), and every answer is the per-column
// reference.
func TestConcurrentFirstSubsetProbes(t *testing.T) {
	p := bloom.Params{M: 1024, K: 2}
	const n, workers = 3000, 16
	rng := rand.New(rand.NewSource(13))
	m, cols := randomMatrix(rng, p, n)
	qs := randomQueries(rng, p, cols)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := NewVec(n)
			var buf []int
			<-start
			for i := range qs {
				q := qs[(w+i)%len(qs)]
				buf = m.SubsetsInto(q, nil, out, buf)
				for c, f := range cols {
					if want := f.SubsetOf(q); out.Get(c) != want {
						t.Errorf("worker %d, query %d: column %d = %v, want %v", w, (w+i)%len(qs), c, out.Get(c), want)
						return
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}
