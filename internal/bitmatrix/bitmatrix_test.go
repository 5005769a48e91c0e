package bitmatrix

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tind/internal/bloom"
	"tind/internal/values"
)

func TestVecBasics(t *testing.T) {
	v := NewVec(130)
	if v.Len() != 130 || v.Count() != 0 {
		t.Fatal("fresh vec must be empty")
	}
	v.Set(0)
	v.Set(64)
	v.Set(129)
	if v.Count() != 3 || !v.Get(64) || v.Get(1) {
		t.Fatal("set/get broken")
	}
	v.Clear(64)
	if v.Get(64) || v.Count() != 2 {
		t.Fatal("clear broken")
	}
}

func TestVecFullTail(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 130} {
		v := NewVecFull(n)
		if v.Count() != n {
			t.Errorf("NewVecFull(%d).Count() = %d", n, v.Count())
		}
		ones := v.Ones()
		if len(ones) != n || (n > 0 && ones[n-1] != n-1) {
			t.Errorf("NewVecFull(%d) ones wrong: %v", n, ones)
		}
	}
}

func TestVecOps(t *testing.T) {
	a := NewVec(100)
	b := NewVec(100)
	a.Set(1)
	a.Set(2)
	a.Set(3)
	b.Set(2)
	b.Set(4)

	and := a.Clone()
	and.And(b)
	if got := and.Ones(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("And = %v", got)
	}

	andnot := a.Clone()
	andnot.AndNot(b)
	if got := andnot.Ones(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("AndNot = %v", got)
	}
	var diff []int
	a.ForEachAndNot(b, func(i int) bool { diff = append(diff, i); return true })
	if got := andnot.Ones(); len(diff) != len(got) || diff[0] != got[0] || diff[1] != got[1] {
		t.Fatalf("ForEachAndNot = %v, AndNot = %v", diff, got)
	}

	or := a.Clone()
	or.Or(b)
	if or.Count() != 4 {
		t.Fatalf("Or count = %d", or.Count())
	}
}

func TestVecForEachEarlyStop(t *testing.T) {
	v := NewVecFull(200)
	n := 0
	v.ForEach(func(i int) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("ForEach visited %d, want 5", n)
	}
}

// buildMatrix indexes the given attribute value sets and returns the
// matrix plus the per-attribute filters.
func buildMatrix(p bloom.Params, attrs []values.Set) (*Matrix, []*bloom.Filter) {
	m := NewMatrix(p, len(attrs))
	fs := make([]*bloom.Filter, len(attrs))
	for i, s := range attrs {
		fs[i] = bloom.FromSet(p, s)
		m.SetColumn(i, fs[i])
	}
	return m, fs
}

func TestSupersetsFindsAllTrueSupersets(t *testing.T) {
	p := bloom.Params{M: 1024, K: 2}
	attrs := []values.Set{
		values.NewSet(1, 2, 3, 4, 5),
		values.NewSet(2, 3),
		values.NewSet(1, 2, 3),
		values.NewSet(6, 7),
		nil,
	}
	m, _ := buildMatrix(p, attrs)
	q := values.NewSet(2, 3)
	cand := m.Supersets(bloom.FromSet(p, q), nil)
	// No false negatives: 0, 1, 2 are true supersets and must be present.
	for _, want := range []int{0, 1, 2} {
		if !cand.Get(want) {
			t.Errorf("true superset %d missing from candidates", want)
		}
	}
	// 3 and 4 are near-certainly pruned at m=1024.
	if cand.Get(3) || cand.Get(4) {
		t.Error("non-supersets survived pruning")
	}
}

func TestSupersetsEmptyQueryKeepsAll(t *testing.T) {
	p := bloom.Params{M: 256, K: 2}
	m, _ := buildMatrix(p, []values.Set{values.NewSet(1), nil})
	cand := m.Supersets(bloom.New(p), nil)
	if cand.Count() != 2 {
		t.Fatal("empty query filter must keep all candidates")
	}
}

func TestSupersetsRespectsBase(t *testing.T) {
	p := bloom.Params{M: 256, K: 2}
	attrs := []values.Set{values.NewSet(1, 2), values.NewSet(1, 2), values.NewSet(1, 2)}
	m, _ := buildMatrix(p, attrs)
	base := NewVec(3)
	base.Set(1)
	cand := m.Supersets(bloom.FromSet(p, values.NewSet(1)), base)
	if got := cand.Ones(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("base restriction violated: %v", got)
	}
	if base.Count() != 1 {
		t.Fatal("base must not be modified")
	}
}

func TestSubsetsFindsAllTrueSubsets(t *testing.T) {
	p := bloom.Params{M: 1024, K: 2}
	attrs := []values.Set{
		values.NewSet(2, 3),       // ⊆ q
		values.NewSet(1, 2, 3, 9), // ⊄ q
		values.NewSet(1),          // ⊆ q
		nil,                       // ⊆ q trivially
	}
	m, _ := buildMatrix(p, attrs)
	q := values.NewSet(1, 2, 3, 4)
	cand := m.Subsets(bloom.FromSet(p, q), nil)
	for _, want := range []int{0, 2, 3} {
		if !cand.Get(want) {
			t.Errorf("true subset %d missing from candidates", want)
		}
	}
	if cand.Get(1) {
		t.Error("non-subset survived pruning")
	}
}

func TestViolators(t *testing.T) {
	p := bloom.Params{M: 1024, K: 2}
	attrs := []values.Set{
		values.NewSet(2, 3),
		values.NewSet(1, 9),
		values.NewSet(42),
	}
	m, _ := buildMatrix(p, attrs)
	base := NewVecFull(3)
	base.Clear(2) // column 2 not under consideration
	q := values.NewSet(1, 2, 3)
	vio := NewVec(3)
	m.ViolatorsInto(bloom.FromSet(p, q), base, vio, nil)
	if vio.Get(0) {
		t.Error("contained attribute flagged as violator")
	}
	if !vio.Get(1) {
		t.Error("violating attribute not flagged")
	}
	if vio.Get(2) {
		t.Error("attribute outside base flagged")
	}
}

// Property: matrix candidate search never produces false negatives in
// either direction, for random sets and params.
func TestMatrixNoFalseNegatives(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := bloom.Params{M: 64 * (1 + r.Intn(4)), K: 1 + r.Intn(3)}
		attrs := make([]values.Set, 1+r.Intn(20))
		for i := range attrs {
			n := r.Intn(10)
			ids := make([]values.Value, n)
			for j := range ids {
				ids[j] = values.Value(r.Intn(40))
			}
			attrs[i] = values.NewSet(ids...)
		}
		m, _ := buildMatrix(p, attrs)
		qids := make([]values.Value, r.Intn(8))
		for j := range qids {
			qids[j] = values.Value(r.Intn(40))
		}
		q := values.NewSet(qids...)
		qf := bloom.FromSet(p, q)
		super := m.Supersets(qf, nil)
		sub := m.Subsets(qf, nil)
		for i, a := range attrs {
			if q.SubsetOf(a) && !super.Get(i) {
				return false
			}
			if a.SubsetOf(q) && !sub.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSetColumnValidation(t *testing.T) {
	p := bloom.Params{M: 64, K: 1}
	m := NewMatrix(p, 2)
	mustPanic(t, func() { m.SetColumn(0, bloom.New(bloom.Params{M: 128, K: 1})) })
	mustPanic(t, func() { m.SetColumn(5, bloom.New(p)) })
	mustPanic(t, func() { m.Supersets(bloom.New(bloom.Params{M: 128, K: 1}), nil) })
	mustPanic(t, func() { m.Subsets(bloom.New(bloom.Params{M: 128, K: 1}), nil) })
	// A filter size the per-column bit counts cannot hold is rejected
	// before anything is allocated.
	huge := 1 << 16
	mustPanic(t, func() { NewMatrix(bloom.Params{M: huge << 16, K: 1}, 1) })
}

func TestMemoryBytes(t *testing.T) {
	m := NewMatrix(bloom.Params{M: 4096, K: 2}, 1000)
	// 4096 rows × ceil(1000/64)=16 words × 8 bytes, plus a 4-byte bit
	// count per column.
	if got := m.MemoryBytes(); got != 4096*16*8+1000*4 {
		t.Fatalf("MemoryBytes = %d", got)
	}
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	fn()
}
