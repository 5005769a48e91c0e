package bitmatrix

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"tind/internal/bloom"
	"tind/internal/values"
)

// TestFillColumnsMatchesSetColumn holds the parallel in-place fill to the
// column-at-a-time reference, word for word and count for count: across
// column counts around the 64-column block, with empty sets, with a
// filter size that is not a power of two, and on a matrix that already
// has bits, where FillColumns ORs and counts only the bits it sets anew.
func TestFillColumnsMatchesSetColumn(t *testing.T) {
	for _, p := range []bloom.Params{{M: 512, K: 2}, {M: 192, K: 3}} {
		for _, n := range []int{0, 1, 63, 64, 65, 200} {
			for _, prefilled := range []bool{false, true} {
				t.Run(fmt.Sprintf("m=%d/n=%d/prefilled=%v", p.M, n, prefilled), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(p.M + n)))
					got, want := NewMatrix(p, n), NewMatrix(p, n)
					if prefilled {
						for c := 0; c < n; c += 2 {
							f := bloom.FromSet(p, randomSet(rng, 6))
							got.SetColumn(c, f)
							want.SetColumn(c, f)
						}
					}
					sets := make([]values.Set, n)
					for c := range sets {
						if c%5 != 2 { // every fifth column stays empty
							sets[c] = randomSet(rng, 1+rng.Intn(20))
						}
						want.SetColumn(c, bloom.FromSet(p, sets[c]))
					}
					calls := make([]atomic.Int32, n)
					got.FillColumns(func(col int, buf values.Set) values.Set {
						calls[col].Add(1)
						return append(buf, sets[col]...)
					})
					for c := range calls {
						if k := calls[c].Load(); k != 1 {
							t.Fatalf("column %d: set called %d times", c, k)
						}
					}
					if !slices.Equal(got.words, want.words) {
						t.Fatal("matrix words differ from the SetColumn reference")
					}
					if !slices.Equal(got.counts, want.counts) {
						t.Fatalf("column counts %v, reference %v", got.counts, want.counts)
					}
				})
			}
		}
	}
}

// randomSet returns up to k distinct values drawn from a small universe,
// so columns overlap and share bits.
func randomSet(rng *rand.Rand, k int) values.Set {
	ids := make([]values.Value, k)
	for i := range ids {
		ids[i] = values.Value(rng.Intn(universe))
	}
	return values.NewSet(ids...)
}

// TestFoldMatchesDirectFill holds Fold to a fill at the half width, word
// for word and count for count, down from M = 4096 to 512: across column
// counts around the 64-column block, with every fifth column empty.
// FoldedFillRatio must predict each fold's FillRatio.
func TestFoldMatchesDirectFill(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			sets := make([]values.Set, n)
			for c := range sets {
				if c%5 != 2 {
					sets[c] = randomSet(rng, 1+rng.Intn(40))
				}
			}
			fill := func(p bloom.Params) *Matrix {
				m := NewMatrix(p, n)
				m.FillColumns(func(col int, buf values.Set) values.Set { return append(buf, sets[col]...) })
				return m
			}
			got := fill(bloom.Params{M: 4096, K: 2})
			for got.Params().M > 512 {
				if !got.CanFold() {
					t.Fatalf("M = %d cannot fold", got.Params().M)
				}
				predicted := got.FoldedFillRatio()
				got = got.Fold()
				want := fill(got.Params())
				if !slices.Equal(got.words, want.words) {
					t.Fatalf("M = %d: folded words differ from a direct fill", got.Params().M)
				}
				if !slices.Equal(got.counts, want.counts) {
					t.Fatalf("M = %d: folded counts %v, direct fill %v", got.Params().M, got.counts, want.counts)
				}
				if predicted != got.FillRatio() {
					t.Fatalf("M = %d: FoldedFillRatio %v, FillRatio after the fold %v", got.Params().M, predicted, got.FillRatio())
				}
			}
		})
	}
	if (&Matrix{params: bloom.Params{M: 192, K: 2}}).CanFold() {
		t.Fatal("M = 192 folds to 96, not a multiple of 64")
	}
}
