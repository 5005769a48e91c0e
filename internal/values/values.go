// Package values provides string interning and sorted value sets.
//
// Attribute versions in Wikipedia table histories are sets of cell values.
// The corpus holds tens of millions of cell-value occurrences but far fewer
// distinct strings, so all packages operate on interned uint32 ids and only
// the dictionary ever touches the raw strings. Sets are kept as sorted id
// slices: subset tests, unions and intersections are linear merges, and a
// sorted representation makes sets directly hashable into Bloom filters.
package values

import (
	"fmt"
	"slices"
	"sync"
)

// Value is an interned identifier for a distinct cell value string.
type Value uint32

// Dictionary maps strings to dense Value ids and back. It is safe for
// concurrent use; interning is optimized for the read-mostly case after
// corpus loading.
type Dictionary struct {
	mu      sync.RWMutex
	byStr   map[string]Value
	strings []string
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{byStr: make(map[string]Value)}
}

// Intern returns the id for s, assigning the next dense id on first sight.
func (d *Dictionary) Intern(s string) Value {
	d.mu.RLock()
	v, ok := d.byStr[s]
	d.mu.RUnlock()
	if ok {
		return v
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if v, ok := d.byStr[s]; ok {
		return v
	}
	v = Value(len(d.strings))
	d.byStr[s] = v
	d.strings = append(d.strings, s)
	return v
}

// Lookup returns the id for s without interning.
func (d *Dictionary) Lookup(s string) (Value, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	v, ok := d.byStr[s]
	return v, ok
}

// String returns the string for an id. It panics on ids that were never
// assigned, which always indicates a bug (ids only come from Intern).
func (d *Dictionary) String(v Value) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(v) >= len(d.strings) {
		panic(fmt.Sprintf("values: id %d out of range (dictionary has %d entries)", v, len(d.strings)))
	}
	return d.strings[v]
}

// Len returns the number of distinct interned strings.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.strings)
}

// InternAll interns a batch of strings and returns the resulting Set.
func (d *Dictionary) InternAll(ss []string) Set {
	ids := make([]Value, 0, len(ss))
	for _, s := range ss {
		ids = append(ids, d.Intern(s))
	}
	return NewSet(ids...)
}

// Strings resolves a set back to its strings, in set (id) order.
func (d *Dictionary) Strings(s Set) []string {
	out := make([]string, len(s))
	for i, v := range s {
		out[i] = d.String(v)
	}
	return out
}

// Set is an immutable sorted slice of distinct Values. The zero value is the
// empty set. Callers must not mutate a Set after construction; all package
// operations return fresh slices.
type Set []Value

// NewSet sorts and deduplicates the given ids into a Set.
func NewSet(ids ...Value) Set {
	if len(ids) == 0 {
		return nil
	}
	s := append(Set(nil), ids...)
	slices.Sort(s)
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// Len returns the cardinality of the set.
func (s Set) Len() int { return len(s) }

// IsEmpty reports whether the set has no elements.
func (s Set) IsEmpty() bool { return len(s) == 0 }

// Contains reports whether v is in the set (binary search).
func (s Set) Contains(v Value) bool {
	_, ok := slices.BinarySearch(s, v)
	return ok
}

// SubsetOf reports whether every element of s is in t, by linear merge.
func (s Set) SubsetOf(t Set) bool {
	if len(s) > len(t) {
		return false
	}
	j := 0
	for _, v := range s {
		for j < len(t) && t[j] < v {
			j++
		}
		if j >= len(t) || t[j] != v {
			return false
		}
		j++
	}
	return true
}

// Equal reports whether the two sets contain the same elements.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Union returns the union of the two sets as a new Set.
func (s Set) Union(t Set) Set {
	if len(s) == 0 {
		return append(Set(nil), t...)
	}
	if len(t) == 0 {
		return append(Set(nil), s...)
	}
	return AppendUnion(make(Set, 0, len(s)+len(t)), s, t)
}

// AppendUnion appends s ∪ t to dst in ascending order, by linear merge,
// and returns the extended slice. dst must not overlap s or t.
func AppendUnion(dst []Value, s, t Set) []Value {
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			dst = append(dst, s[i])
			i++
		case s[i] > t[j]:
			dst = append(dst, t[j])
			j++
		default:
			dst = append(dst, s[i])
			i++
			j++
		}
	}
	dst = append(dst, s[i:]...)
	return append(dst, t[j:]...)
}

// Intersect returns the intersection of the two sets as a new Set.
func (s Set) Intersect(t Set) Set { return AppendIntersect(nil, s, t) }

// AppendIntersect appends s ∩ t to dst in ascending order and returns the
// extended slice. It walks the smaller set and gallops through the larger,
// so intersecting a small set with a large one costs the small side times
// a logarithm rather than the sum of both lengths.
func AppendIntersect(dst []Value, s, t Set) []Value {
	if len(s) > len(t) {
		s, t = t, s
	}
	for _, v := range s {
		i := Gallop(t, v)
		if i == len(t) {
			break
		}
		if t[i] == v {
			dst = append(dst, v)
			i++
		}
		t = t[i:]
	}
	return dst
}

// Gallop returns the first index i with s[i] >= v (len(s) when there is
// none) by doubling steps from the front and a binary search inside the
// last step. Merging a short sorted run into a long one through Gallop,
// re-slicing past each hit, is how the validation sweep projects value
// sets onto a shared vocabulary.
func Gallop(s Set, v Value) int {
	hi := 1
	for hi <= len(s) && s[hi-1] < v {
		hi *= 2
	}
	lo := hi / 2
	if hi > len(s) {
		hi = len(s)
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Diff returns the elements of s not in t as a new Set.
func (s Set) Diff(t Set) Set {
	var out Set
	j := 0
	for _, v := range s {
		for j < len(t) && t[j] < v {
			j++
		}
		if j < len(t) && t[j] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}
