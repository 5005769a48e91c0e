package values

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestDictionaryIntern(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("alpha")
	b := d.Intern("beta")
	if a == b {
		t.Fatal("distinct strings got the same id")
	}
	if got := d.Intern("alpha"); got != a {
		t.Fatalf("re-interning changed id: %d vs %d", got, a)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if d.String(a) != "alpha" || d.String(b) != "beta" {
		t.Fatal("String round-trip failed")
	}
	if v, ok := d.Lookup("beta"); !ok || v != b {
		t.Fatal("Lookup failed for existing string")
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Fatal("Lookup must miss for unseen string")
	}
}

func TestDictionaryStringPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("String on unknown id must panic")
		}
	}()
	NewDictionary().String(42)
}

func TestDictionaryConcurrent(t *testing.T) {
	d := NewDictionary()
	words := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var wg sync.WaitGroup
	ids := make([][]Value, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]Value, len(words))
			for i, w := range words {
				ids[g][i] = d.Intern(w)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		if !reflect.DeepEqual(ids[0], ids[g]) {
			t.Fatalf("goroutine %d saw different ids", g)
		}
	}
	if d.Len() != len(words) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(words))
	}
}

func TestDictionaryInternAllAndStrings(t *testing.T) {
	d := NewDictionary()
	s := d.InternAll([]string{"x", "y", "x", "z"})
	if s.Len() != 3 {
		t.Fatalf("InternAll dedup: len = %d, want 3", s.Len())
	}
	back := d.Strings(s)
	if len(back) != 3 {
		t.Fatalf("Strings: len = %d", len(back))
	}
}

func TestNewSetSortsAndDedups(t *testing.T) {
	s := NewSet(5, 1, 3, 1, 5, 5)
	want := Set{1, 3, 5}
	if !s.Equal(want) {
		t.Fatalf("NewSet = %v, want %v", s, want)
	}
	if NewSet() != nil {
		t.Fatal("empty NewSet must be nil")
	}
}

func TestSetContains(t *testing.T) {
	s := NewSet(2, 4, 6)
	for _, c := range []struct {
		v    Value
		want bool
	}{{1, false}, {2, true}, {3, false}, {6, true}, {7, false}} {
		if got := s.Contains(c.v); got != c.want {
			t.Errorf("Contains(%d) = %v", c.v, got)
		}
	}
	if Set(nil).Contains(0) {
		t.Fatal("empty set contains nothing")
	}
}

func TestSubsetOf(t *testing.T) {
	cases := []struct {
		a, b Set
		want bool
	}{
		{nil, nil, true},
		{nil, NewSet(1), true},
		{NewSet(1), nil, false},
		{NewSet(1, 3), NewSet(1, 2, 3), true},
		{NewSet(1, 4), NewSet(1, 2, 3), false},
		{NewSet(1, 2, 3), NewSet(1, 2, 3), true},
		{NewSet(0), NewSet(1, 2), false},
		{NewSet(5), NewSet(1, 2), false},
	}
	for _, c := range cases {
		if got := c.a.SubsetOf(c.b); got != c.want {
			t.Errorf("SubsetOf(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSetOps(t *testing.T) {
	a := NewSet(1, 2, 3, 5)
	b := NewSet(2, 4, 5, 7)
	if got := a.Union(b); !got.Equal(NewSet(1, 2, 3, 4, 5, 7)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(NewSet(2, 5)) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Diff(b); !got.Equal(NewSet(1, 3)) {
		t.Errorf("Diff = %v", got)
	}
	if got := Set(nil).Union(b); !got.Equal(b) {
		t.Errorf("nil Union = %v", got)
	}
	if got := a.Union(nil); !got.Equal(a) {
		t.Errorf("Union nil = %v", got)
	}
}

// Property-based tests: set operations agree with a map-based model.

func modelSet(s Set) map[Value]bool {
	m := make(map[Value]bool)
	for _, v := range s {
		m[v] = true
	}
	return m
}

func randomSet(r *rand.Rand) Set {
	n := r.Intn(20)
	ids := make([]Value, n)
	for i := range ids {
		ids[i] = Value(r.Intn(30))
	}
	return NewSet(ids...)
}

func TestSetAlgebraProperties(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(randomSet(r))
			args[1] = reflect.ValueOf(randomSet(r))
		},
	}
	prop := func(a, b Set) bool {
		ma, mb := modelSet(a), modelSet(b)
		u := a.Union(b)
		for v := range ma {
			if !u.Contains(v) {
				return false
			}
		}
		for v := range mb {
			if !u.Contains(v) {
				return false
			}
		}
		for _, v := range u {
			if !ma[v] && !mb[v] {
				return false
			}
		}
		// subset consistency
		if a.SubsetOf(u) != true || b.SubsetOf(u) != true {
			return false
		}
		inter := a.Intersect(b)
		if !inter.SubsetOf(a) || !inter.SubsetOf(b) {
			return false
		}
		diff := a.Diff(b)
		for _, v := range diff {
			if !ma[v] || mb[v] {
				return false
			}
		}
		// diff ∪ intersect == a
		if !diff.Union(inter).Equal(a) {
			return false
		}
		// sortedness invariant
		for i := 1; i < len(u); i++ {
			if u[i-1] >= u[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Gallop is the lower bound the validation sweep merges with: it must
// agree with a linear scan at every position, including past both ends,
// and AppendIntersect built on it must keep a caller's prefix.
func TestGallopAndAppendIntersect(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		s := randomSet(r)
		for v := Value(0); v <= 31; v++ {
			want := 0
			for want < len(s) && s[want] < v {
				want++
			}
			if got := Gallop(s, v); got != want {
				t.Fatalf("Gallop(%v, %d) = %d, want %d", s, v, got, want)
			}
		}
		a, b := randomSet(r), randomSet(r)
		got := AppendIntersect([]Value{99}, a, b)
		if got[0] != 99 || !Set(got[1:]).Equal(a.Diff(a.Diff(b))) {
			t.Fatalf("AppendIntersect(%v, %v) = %v", a, b, got)
		}
	}
}
