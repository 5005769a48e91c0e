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
	p := bloom.Params{M: 4096, K: 2}
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
// 2 or 200 candidates that reach a slice. It is the measurement behind
// Matrix.dense, which ends the row operations once no more columns survive
// than a row has words. On the 2-core reference box, with the switch at
// that multiple of the words per row (µs per probe):
//
//	switch at            ½×    1×    2×    4×    8×   16×   never sparse
//	subsets/base=0       40    39    38    64    87   185    660
//	supersets/base=0    1.5   1.5   1.5   1.9   2.0   1.7     33
//	supersets/base=200  0.9   0.9   1.5   1.6   1.4   1.7    1.4
//
// Flat from ½× to 2×, so the plain rule — 1× — stands; C8k's reverse
// queries agree (M_R probe 60 µs at 1×, 70 µs at 2×, 98 at 4×, 168 at 8×).
// At 1× a sparse base costs 0.7 µs (supersets), 1.0 µs (subsets) and 1.1 µs
// (violators) for 2 columns, ≈ 20 µs for 200 columns against ≈ 100 set
// rows; the row-only kernels these replace took 81 µs (supersets) and
// 560 µs (subsets) whatever the base.
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
