package bitmatrix

import (
	"fmt"
	"math/rand"
	"testing"

	"tind/internal/bloom"
	"tind/internal/values"
)

// benchMatrix fills a matrix the way a corpus does: a few universal values
// that half the columns hold (the rows at 50 % density of a real M_T/M_R),
// the rest drawn with a long tail, 4–60 values per column. It returns the
// per-column filters too; a column's own filter is the reverse query that
// has genuine subsets.
func benchMatrix(nAttrs int) (*Matrix, []*bloom.Filter) {
	return benchMatrixM(bloom.Params{M: 4096, K: 2}, nAttrs)
}

func benchMatrixM(p bloom.Params, nAttrs int) (*Matrix, []*bloom.Filter) {
	r := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(r, 1.2, 40, 100000)
	m := NewMatrix(p, nAttrs)
	cols := make([]*bloom.Filter, nAttrs)
	for c := range cols {
		f := bloom.New(p)
		for u := 0; u < 20; u++ {
			if r.Intn(2) == 0 {
				f.Add(values.Value(1000000 + u))
			}
		}
		for i := 4 + r.Intn(57); i > 0; i-- {
			f.Add(values.Value(zipf.Uint64()))
		}
		cols[c] = f
		m.SetColumn(c, f)
	}
	return m, cols
}

func benchBase(n, k int) *Vec {
	if k == 0 {
		return nil
	}
	v := NewVec(n)
	for _, c := range rand.New(rand.NewSource(2)).Perm(n)[:k] {
		v.Set(c)
	}
	return v
}

// BenchmarkProbe times the three kernels on 8 000 columns (125 words per
// row) from the bases the index hands them: every column (phase 1), and the
// 2 or 200 candidates that reach a slice. The superset probe is the
// measurement behind Matrix.dense, which ends its row operations once no
// more columns survive than a row has words. On the 2-core reference box,
// with the switch at that multiple of the words per row (µs per probe):
//
//	switch at            ½×    1×    2×    4×    8×   16×   never sparse
//	supersets/base=0    1.5   1.5   1.5   1.9   2.0   1.7     33
//	supersets/base=200  0.9   0.9   1.5   1.6   1.4   1.7    1.4
//
// Flat from ½× to 2×, so the plain rule — 1× — stands. The subset probe
// starts from its keys instead of removing zero rows from every column:
// subsets/base=0 took 40–76 µs with the zero-row sweep and takes
// 3.6–4.4 µs (3 alternated runs of each build on a shared 2-vCPU VM);
// from the 200-column base subsets 22–32 → 1.8–2.9 µs and violators
// 25–32 → 1.9–3.6 µs. A 2-column base costs ≈ 1 µs (supersets) and
// 1.4–2.4 µs (subsets, violators); the row-only kernels the dense/sparse
// rule replaced took 81 µs (supersets) and 560 µs (subsets) whatever the
// base.
func BenchmarkProbe(b *testing.B) {
	const n = 8000
	m, cols := benchMatrix(n)
	out := NewVec(n)
	var buf []int
	for _, k := range []int{0, 2, 200} {
		base := benchBase(n, k)
		b.Run(fmt.Sprintf("supersets/base=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buf = m.SupersetsInto(cols[i%n], base, out, buf)
			}
		})
		b.Run(fmt.Sprintf("subsets/base=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buf = m.SubsetsInto(cols[i%n], base, out, buf)
			}
		})
		if base == nil {
			continue
		}
		b.Run(fmt.Sprintf("violators/base=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buf = m.ViolatorsInto(cols[i%n], base, out, buf)
			}
		})
	}
}

// BenchmarkSubsetsByFill times the subset probe from every column against
// queries that are the union of 1 to 41 columns, at the forward (m = 4096)
// and the reverse-tuned (m = 512) filter size: the fuller the query, the
// more columns its set rows key and the fewer zero rows it has, so this
// is where the probe's cost rule (testWords) chooses between its keys,
// its zero-row passes and its per-column finish.
func BenchmarkSubsetsByFill(b *testing.B) {
	const n = 8000
	for _, bits := range []int{512, 4096} {
		m, cols := benchMatrixM(bloom.Params{M: bits, K: 2}, n)
		out := NewVec(n)
		var buf []int
		r := rand.New(rand.NewSource(5))
		for _, union := range []int{0, 1, 3, 10, 40} {
			qs := make([]*bloom.Filter, 64)
			fill := 0
			for i := range qs {
				qs[i] = cols[r.Intn(n)].Clone()
				for j := 0; j < union; j++ {
					qs[i].UnionWith(cols[r.Intn(n)])
				}
				fill += qs[i].PopCount()
			}
			b.Run(fmt.Sprintf("m=%d/fill=%d", bits, fill/len(qs)), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					buf = m.SubsetsInto(qs[i%len(qs)], nil, out, buf)
				}
			})
		}
	}
}

func BenchmarkSupersets(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		m, cols := benchMatrix(n)
		b.Run(fmt.Sprintf("attrs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Supersets(cols[i%n], nil)
			}
		})
	}
}

func BenchmarkSubsets(b *testing.B) {
	m, cols := benchMatrix(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Subsets(cols[i%10000], nil)
	}
}
