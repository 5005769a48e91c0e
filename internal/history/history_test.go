package history

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tind/internal/timeline"
	"tind/internal/values"
)

func mustHistory(t testing.TB, versions []Version, end timeline.Time) *History {
	t.Helper()
	h, err := New(Meta{Page: "p", Table: "t", Column: "c"}, versions, end)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func set(vs ...values.Value) values.Set { return values.NewSet(vs...) }

func sampleHistory(t testing.TB) *History {
	// versions: [2,5) {1,2}; [5,9) {1,2,3}; [9,12) {4}
	return mustHistory(t, []Version{
		{Start: 2, Values: set(1, 2)},
		{Start: 5, Values: set(1, 2, 3)},
		{Start: 9, Values: set(4)},
	}, 12)
}

func TestNewValidation(t *testing.T) {
	meta := Meta{Page: "p"}
	if _, err := New(meta, nil, 5); err == nil {
		t.Error("empty versions must fail")
	}
	if _, err := New(meta, []Version{{Start: 3, Values: set(1)}, {Start: 3, Values: set(2)}}, 5); err == nil {
		t.Error("non-ascending starts must fail")
	}
	if _, err := New(meta, []Version{{Start: 1, Values: set(1)}, {Start: 2, Values: set(1)}}, 5); err == nil {
		t.Error("consecutive identical versions must fail")
	}
	if _, err := New(meta, []Version{{Start: 3, Values: set(1)}}, 3); err == nil {
		t.Error("end not after last start must fail")
	}
}

func TestAt(t *testing.T) {
	h := sampleHistory(t)
	cases := []struct {
		t    timeline.Time
		want values.Set
	}{
		{0, nil}, {1, nil},
		{2, set(1, 2)}, {4, set(1, 2)},
		{5, set(1, 2, 3)}, {8, set(1, 2, 3)},
		{9, set(4)}, {11, set(4)},
		{12, nil}, {100, nil},
	}
	for _, c := range cases {
		if got := h.At(c.t); !got.Equal(c.want) {
			t.Errorf("At(%d) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestUnion(t *testing.T) {
	h := sampleHistory(t)
	cases := []struct {
		i    timeline.Interval
		want values.Set
	}{
		{timeline.NewInterval(0, 2), nil},
		{timeline.NewInterval(0, 3), set(1, 2)},
		{timeline.NewInterval(4, 6), set(1, 2, 3)},
		{timeline.NewInterval(2, 12), set(1, 2, 3, 4)},
		{timeline.NewInterval(9, 100), set(4)},
		{timeline.NewInterval(12, 20), nil},
		{timeline.NewInterval(8, 9), set(1, 2, 3)},
		{timeline.NewInterval(8, 10), set(1, 2, 3, 4)},
	}
	for _, c := range cases {
		if got := h.Union(c.i); !got.Equal(c.want) {
			t.Errorf("Union(%v) = %v, want %v", c.i, got, c.want)
		}
		if got := h.DistinctValuesIn(c.i); got != c.want.Len() {
			t.Errorf("DistinctValuesIn(%v) = %d, want %d", c.i, got, c.want.Len())
		}
	}
}

func TestAllValues(t *testing.T) {
	h := sampleHistory(t)
	if !h.AllValues().Equal(set(1, 2, 3, 4)) {
		t.Fatalf("AllValues = %v", h.AllValues())
	}
}

func TestVersionAccessors(t *testing.T) {
	h := sampleHistory(t)
	if h.NumVersions() != 3 || h.NumChanges() != 2 {
		t.Fatalf("versions=%d changes=%d", h.NumVersions(), h.NumChanges())
	}
	if h.ObservedFrom() != 2 || h.ObservedUntil() != 12 {
		t.Fatal("observation window wrong")
	}
	if h.Validity(0) != timeline.NewInterval(2, 5) {
		t.Fatalf("Validity(0) = %v", h.Validity(0))
	}
	if h.Validity(2) != timeline.NewInterval(9, 12) {
		t.Fatalf("Validity(2) = %v", h.Validity(2))
	}
	ct := h.ChangeTimes()
	if len(ct) != 3 || ct[0] != 2 || ct[2] != 9 {
		t.Fatalf("ChangeTimes = %v", ct)
	}
	if h.Lifespan().Len() != 10 {
		t.Fatalf("Lifespan = %v", h.Lifespan())
	}
}

func TestMedianCardinality(t *testing.T) {
	h := sampleHistory(t) // sizes 2, 3, 1 → sorted 1,2,3 → median 2
	if got := h.MedianCardinality(); got != 2 {
		t.Fatalf("MedianCardinality = %d, want 2", got)
	}
}

// Property: the hand-rolled binary searches behind At and Union agree with
// a linear scan over the versions, at every timestamp and for every window
// around the observation period, and AllValues and AppendUnion with the
// union folded version by version.
func TestVersionLookupProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := NewBuilder(Meta{Page: "p"})
		t0 := timeline.Time(r.Intn(5))
		for i, nver := 0, 1+r.Intn(10); i < nver; i++ {
			ids := make([]values.Value, 1+r.Intn(6))
			for j := range ids {
				ids[j] = values.Value(r.Intn(12))
			}
			b.Observe(t0, values.NewSet(ids...))
			t0 += timeline.Time(1 + r.Intn(4))
		}
		h, err := b.Build(t0 + timeline.Time(1+r.Intn(3)))
		if err != nil {
			return false
		}
		for s := timeline.Time(-2); s < h.ObservedUntil()+2; s++ {
			var at values.Set
			for k := 0; k < h.NumVersions(); k++ {
				if h.Validity(k).Contains(s) {
					at = h.Version(k).Values
				}
			}
			if !h.At(s).Equal(at) {
				return false
			}
			for e := s + 1; e < s+7; e++ {
				w := timeline.NewInterval(s, e)
				var want values.Set
				for k := 0; k < h.NumVersions(); k++ {
					if h.Validity(k).Overlaps(w) {
						want = want.Union(h.Version(k).Values)
					}
				}
				if !h.Union(w).Equal(want) {
					return false
				}
				// AppendUnion keeps what dst holds and appends A[w].
				dst := append(make(values.Set, 0, 32), 99)
				if got := h.AppendUnion(dst, w); got[0] != 99 || !got[1:].Equal(want) {
					return false
				}
			}
		}
		var all values.Set
		for k := 0; k < h.NumVersions(); k++ {
			all = all.Union(h.Version(k).Values)
		}
		return h.AllValues().Equal(all)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderCollapsesNoOps(t *testing.T) {
	b := NewBuilder(Meta{Page: "p"})
	b.Observe(5, set(1, 2))
	b.Observe(1, set(1))
	b.Observe(9, set(1, 2)) // no-op relative to t=5
	b.Observe(12, set(3))
	h, err := b.Build(20)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVersions() != 3 {
		t.Fatalf("NumVersions = %d, want 3 (no-op collapsed)", h.NumVersions())
	}
	if h.ObservedFrom() != 1 {
		t.Fatalf("builder must sort observations; from = %d", h.ObservedFrom())
	}
}

func TestBuilderSameTimestampLastWins(t *testing.T) {
	b := NewBuilder(Meta{Page: "p"})
	b.Observe(3, set(1))
	b.Observe(5, set(9))
	b.Observe(5, set(2, 3))
	h, err := b.Build(10)
	if err != nil {
		t.Fatal(err)
	}
	if !h.At(5).Equal(set(2, 3)) {
		t.Fatalf("At(5) = %v, want last writer", h.At(5))
	}
	// Last-writer collapse back into a no-op must also be handled.
	b2 := NewBuilder(Meta{Page: "p"})
	b2.Observe(3, set(1))
	b2.Observe(5, set(9))
	b2.Observe(5, set(1))
	h2, err := b2.Build(10)
	if err != nil {
		t.Fatal(err)
	}
	if h2.NumVersions() != 1 {
		t.Fatalf("NumVersions = %d, want 1", h2.NumVersions())
	}
}

func TestBuilderEmpty(t *testing.T) {
	if _, err := NewBuilder(Meta{}).Build(10); err == nil {
		t.Fatal("empty builder must fail")
	}
}

func TestDataset(t *testing.T) {
	d := NewDataset(100)
	h1 := mustHistory(t, []Version{{Start: 0, Values: set(1)}, {Start: 5, Values: set(2)}}, 50)
	h2 := mustHistory(t, []Version{{Start: 10, Values: set(3)}}, 100)
	id1, err := d.Add(h1)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := d.Add(h2)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != 0 || id2 != 1 {
		t.Fatalf("ids = %d, %d", id1, id2)
	}
	if d.Attr(id2) != h2 || h2.ID() != id2 {
		t.Fatal("Attr lookup mismatch")
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	bad := mustHistory(t, []Version{{Start: 0, Values: set(1)}}, 200)
	if _, err := d.Add(bad); err == nil {
		t.Fatal("history beyond horizon must be rejected")
	}
}

func TestDatasetSubset(t *testing.T) {
	d := NewDataset(100)
	for i := 0; i < 5; i++ {
		h := mustHistory(t, []Version{{Start: 0, Values: set(values.Value(i))}}, 100)
		if _, err := d.Add(h); err != nil {
			t.Fatal(err)
		}
	}
	sub := d.Subset(3)
	if sub.Len() != 3 {
		t.Fatalf("Subset len = %d", sub.Len())
	}
	if sub.Attr(2).ID() != 2 {
		t.Fatal("subset must reassign ids")
	}
	if d.Subset(99).Len() != 5 {
		t.Fatal("oversized subset must clamp")
	}
}

func TestComputeStats(t *testing.T) {
	d := NewDataset(100)
	h1 := mustHistory(t, []Version{
		{Start: 0, Values: set(1, 2)},
		{Start: 10, Values: set(1, 2, 3)},
	}, 20) // 1 change, lifespan 20, cards 2 and 3
	h2 := mustHistory(t, []Version{{Start: 50, Values: set(4)}}, 60) // 0 changes, lifespan 10, card 1
	d.Add(h1)
	d.Add(h2)
	s := d.ComputeStats()
	if s.Attributes != 2 {
		t.Fatalf("Attributes = %d", s.Attributes)
	}
	if s.MeanChanges != 0.5 {
		t.Fatalf("MeanChanges = %g", s.MeanChanges)
	}
	if s.MeanLifespanDay != 15 {
		t.Fatalf("MeanLifespan = %g", s.MeanLifespanDay)
	}
	if s.MeanCardinality != 2 {
		t.Fatalf("MeanCardinality = %g", s.MeanCardinality)
	}
	if NewDataset(10).ComputeStats().Attributes != 0 {
		t.Fatal("empty dataset stats")
	}
}
