// Package bloom implements the subset-preserving Bloom filters that back
// the candidate search of MANY and of the tIND index (Section 4.1).
//
// A filter is a bit vector of m bits. Hashing preserves subset
// relationships: if A ⊆ B then every bit set in h(A) is also set in h(B).
// The converse does not hold — containment of filters only yields
// candidates, which the caller validates against the actual data.
package bloom

import (
	"fmt"
	"math/bits"

	"tind/internal/values"
)

// Params fixes the shape of all filters that take part in one index: the
// number of bits M and the number of hash functions K per value. Filters
// are only comparable when built with identical Params.
type Params struct {
	M int // filter size in bits; must be a positive multiple of 64
	K int // hash functions per value; must be positive
}

// DefaultParams is the paper's best-performing configuration for tIND
// search: m = 4096 (Section 5.4). Two hash functions keep filters sparse
// at the corpus's average version cardinality of ~28 values.
var DefaultParams = Params{M: 4096, K: 2}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.M <= 0 || p.M%64 != 0 {
		return fmt.Errorf("bloom: M must be a positive multiple of 64, got %d", p.M)
	}
	if p.K <= 0 {
		return fmt.Errorf("bloom: K must be positive, got %d", p.K)
	}
	return nil
}

// splitmix64 is the finalizer of the SplitMix64 generator — a fast,
// well-distributed 64-bit mixer for the interned value ids.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Bits returns the bit positions the value hashes to under p, appending to
// dst. Double hashing (Kirsch–Mitzenmacher) derives all K positions from
// two mixed halves.
func (p Params) Bits(v values.Value, dst []int) []int {
	h := splitmix64(uint64(v))
	h1 := h & 0xffffffff
	h2 := (h >> 32) | 1 // odd step so all residues are reachable
	m := uint64(p.M)
	for i := 0; i < p.K; i++ {
		dst = append(dst, int((h1+uint64(i)*h2)%m))
	}
	return dst
}

// Filter is a Bloom filter over interned values.
type Filter struct {
	p     Params
	words []uint64
}

// New returns an empty filter with the given parameters.
func New(p Params) *Filter {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Filter{p: p, words: make([]uint64, p.M/64)}
}

// FromSet builds a filter over all values of a set.
func FromSet(p Params, s values.Set) *Filter {
	f := New(p)
	f.AddSet(s)
	return f
}

// Params returns the filter's shape.
func (f *Filter) Params() Params { return f.p }

// Add inserts a single value.
func (f *Filter) Add(v values.Value) {
	var buf [16]int
	for _, b := range f.p.Bits(v, buf[:0]) {
		f.words[b>>6] |= 1 << (uint(b) & 63)
	}
}

// AddSet inserts every value of the set.
func (f *Filter) AddSet(s values.Set) {
	for _, v := range s {
		f.Add(v)
	}
}

// Test reports whether the value may be in the filter.
func (f *Filter) Test(v values.Value) bool {
	var buf [16]int
	for _, b := range f.p.Bits(v, buf[:0]) {
		if f.words[b>>6]&(1<<(uint(b)&63)) == 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every bit of f is set in g — the filter-level
// necessary condition for set containment. Panics on mismatched params,
// which always indicates an index-construction bug.
func (f *Filter) SubsetOf(g *Filter) bool {
	if f.p != g.p {
		panic(fmt.Sprintf("bloom: comparing filters with different params %v vs %v", f.p, g.p))
	}
	for i, w := range f.words {
		if w&^g.words[i] != 0 {
			return false
		}
	}
	return true
}

// UnionWith ors g into f in place.
func (f *Filter) UnionWith(g *Filter) {
	if f.p != g.p {
		panic(fmt.Sprintf("bloom: union of filters with different params %v vs %v", f.p, g.p))
	}
	for i := range f.words {
		f.words[i] |= g.words[i]
	}
}

// PopCount returns the number of set bits, the filter's density measure.
func (f *Filter) PopCount() int {
	n := 0
	for _, w := range f.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Bit reports whether bit position i is set. The batched bit-matrix
// sweeps iterate rows in matrix order and test each query filter at the
// current row, so the accessor must be cheap and allocation-free.
func (f *Filter) Bit(i int) bool {
	return f.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Words returns the filter's bits as 64-bit words, bit i at word i/64, for
// callers that walk the set bits without materializing them; the slice
// aliases the filter and must not be modified.
func (f *Filter) Words() []uint64 { return f.words }

// SetBits appends the indices of all set bits to dst. Bit-matrix queries
// iterate the set bits of the query filter (rows to AND, Section 4.1).
func (f *Filter) SetBits(dst []int) []int {
	for wi, w := range f.words {
		base := wi << 6
		for w != 0 {
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// ZeroBits appends the indices of all clear bits to dst. Reverse candidate
// search iterates the zero bits of the query filter (Section 4.1: rows
// whose conjunction of negations yields subset candidates).
func (f *Filter) ZeroBits(dst []int) []int {
	for wi, w := range f.words {
		base := wi << 6
		inv := ^w
		for inv != 0 {
			dst = append(dst, base+bits.TrailingZeros64(inv))
			inv &= inv - 1
		}
	}
	return dst
}

// Clone returns a deep copy of the filter.
func (f *Filter) Clone() *Filter {
	g := &Filter{p: f.p, words: make([]uint64, len(f.words))}
	copy(g.words, f.words)
	return g
}

// Reset clears all bits, retaining the allocation.
func (f *Filter) Reset() {
	for i := range f.words {
		f.words[i] = 0
	}
}
