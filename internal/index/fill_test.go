package index

import (
	"math"
	"testing"

	"tind/internal/bitmatrix"
	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/timeline"
	"tind/internal/values"
)

// TestBuildMatricesMatchColumnReference holds the parallel in-place fill
// of Build and Reslice to a column-at-a-time reference: M_T, every slice
// matrix with its minimum violation weights (bit for bit) and M_R must
// equal matrices filled with SetColumn(bloom.FromSet(...)) from value sets
// folded version by version, at each matrix's own width, and the serial
// minViolationWeight. The attribute count is not a multiple of 64, so the
// last 64-column block is partial.
func TestBuildMatricesMatchColumnReference(t *testing.T) {
	c, err := datagen.Generate(datagen.Config{Seed: 8, Attributes: 300, Horizon: 600})
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"DefaultOptions+Reverse", DefaultOptions(ds.Horizon()).ForReverse()},
		{"DefaultReverseOptions", DefaultReverseOptions(ds.Horizon())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x, err := Build(ds, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			checkColumnReference(t, "build", x)
			if _, err := x.Reslice(); err != nil {
				t.Fatal(err)
			}
			checkColumnReference(t, "reslice", x)
		})
	}
}

func checkColumnReference(t *testing.T, stage string, x *Index) {
	t.Helper()
	x.mu.RLock()
	defer x.mu.RUnlock()
	opt, attrs := x.opt, x.ds.Attrs()
	// union folds the values of the versions overlapping iv one by one.
	union := func(h *history.History, iv timeline.Interval) values.Set {
		var all values.Set
		for v := 0; v < h.NumVersions(); v++ {
			if !h.Validity(v).Intersect(iv).IsEmpty() {
				all = all.Union(h.Version(v).Values)
			}
		}
		return all
	}
	reference := func(p bloom.Params, set func(h *history.History) values.Set) *bitmatrix.Matrix {
		m := bitmatrix.NewMatrix(p, len(attrs))
		for a, h := range attrs {
			m.SetColumn(a, bloom.FromSet(p, set(h)))
		}
		return m
	}
	whole := timeline.NewInterval(0, x.ds.Horizon())
	if !x.mT.Equal(reference(x.mT.Params(), func(h *history.History) values.Set { return union(h, whole) })) {
		t.Fatalf("%s: M_T differs from the column reference", stage)
	}
	if len(x.ss.slices) == 0 {
		t.Fatalf("%s: no slices", stage)
	}
	for j, ts := range x.ss.slices {
		window := ts.window(opt)
		if !ts.matrix.Equal(reference(ts.matrix.Params(), func(h *history.History) values.Set { return union(h, window) })) {
			t.Fatalf("%s: slice %d %v differs from the column reference", stage, j, ts.iv)
		}
		for a, h := range attrs {
			got, want := ts.minVio[a], minViolationWeight(h, window, opt.Params.Weight)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: slice %d attribute %d: minimum violation weight %v, reference %v", stage, j, a, got, want)
			}
		}
	}
	if x.mR == nil || !x.mR.Equal(reference(x.mR.Params(), func(h *history.History) values.Set {
		return core.RequiredValues(h, opt.Params.Epsilon, opt.Params.Weight)
	})) {
		t.Fatalf("%s: M_R differs from the column reference", stage)
	}
}
