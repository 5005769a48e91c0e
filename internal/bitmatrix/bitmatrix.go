// Package bitmatrix implements the Bloom-filter bit matrix of MANY
// (Section 4.1): rows are Bloom-filter bit positions, columns are
// attributes. Candidate search for supersets of a query ANDs the rows at
// which the query filter has a set bit; candidate search for subsets
// (reverse direction) keeps the columns that have no bit at the query's
// zero rows. Full-width row operations run only while they cost less than
// testing the surviving columns one by one (Matrix.dense), and one test
// per surviving column finishes. The subset probe starts from postings
// instead of every column: a column contained in the query has its
// rarest set row among the query's set rows, so only the columns keyed
// on those rows are candidates (subsetKeys, derived by the first probe
// that needs them).
package bitmatrix

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"tind/internal/bloom"
	"tind/internal/values"
)

// Vec is a bit vector over attribute columns. Experiments and the index
// use it as the candidate set representation C of Algorithm 1.
type Vec struct {
	n     int
	words []uint64
}

// NewVec returns a vector of n bits, all clear.
func NewVec(n int) *Vec {
	return &Vec{n: n, words: make([]uint64, (n+63)/64)}
}

// NewVecFull returns a vector of n bits, all set — the initial candidate
// set C_0 of Algorithm 1.
func NewVecFull(n int) *Vec {
	v := NewVec(n)
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.clearTail()
	return v
}

// clearTail zeroes the unused bits of the last word so that Count and
// iteration never see ghost columns.
func (v *Vec) clearTail() {
	if r := v.n & 63; r != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << uint(r)) - 1
	}
}

// Len returns the number of bits.
func (v *Vec) Len() int { return v.n }

// Get reports whether bit i is set.
func (v *Vec) Get(i int) bool { return v.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set sets bit i.
func (v *Vec) Set(i int) { v.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (v *Vec) Clear(i int) { v.words[i>>6] &^= 1 << (uint(i) & 63) }

// Count returns the number of set bits.
func (v *Vec) Count() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// And intersects v with o in place.
func (v *Vec) And(o *Vec) {
	for i := range v.words {
		v.words[i] &= o.words[i]
	}
}

// AndNot removes o's bits from v in place.
func (v *Vec) AndNot(o *Vec) {
	for i := range v.words {
		v.words[i] &^= o.words[i]
	}
}

// Or unions o into v in place.
func (v *Vec) Or(o *Vec) {
	for i := range v.words {
		v.words[i] |= o.words[i]
	}
}

// Clone returns a deep copy.
func (v *Vec) Clone() *Vec {
	c := &Vec{n: v.n, words: make([]uint64, len(v.words))}
	copy(c.words, v.words)
	return c
}

// Reset clears all bits, retaining the allocation.
func (v *Vec) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Fill sets all n bits, retaining the allocation — the pooled equivalent
// of NewVecFull for recycled candidate sets.
func (v *Vec) Fill() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.clearTail()
}

// CopyFrom overwrites v with o's bits. The vectors must have the same
// length; candidate scratch is only ever recycled within one index, so a
// mismatch is a construction bug.
func (v *Vec) CopyFrom(o *Vec) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitmatrix: CopyFrom length mismatch %d vs %d", v.n, o.n))
	}
	copy(v.words, o.words)
}

// AppendOnes appends the indices of all set bits to dst — the
// allocation-free variant of Ones for pooled scratch.
func (v *Vec) AppendOnes(dst []int) []int {
	v.ForEach(func(i int) bool { dst = append(dst, i); return true })
	return dst
}

// ForEach calls fn for every set bit in ascending order. Returning false
// from fn stops the iteration.
func (v *Vec) ForEach(fn func(i int) bool) {
	for wi, w := range v.words {
		base := wi << 6
		for w != 0 {
			if !fn(base + bits.TrailingZeros64(w)) {
				return
			}
			w &= w - 1
		}
	}
}

// ForEachAndNot calls fn, in ascending order, for every bit set in v and
// clear in o: ForEach over v ∧ ¬o without materializing it. Returning
// false from fn stops the iteration.
func (v *Vec) ForEachAndNot(o *Vec, fn func(i int) bool) {
	for wi, w := range v.words {
		base := wi << 6
		for w &^= o.words[wi]; w != 0; w &= w - 1 {
			if !fn(base + bits.TrailingZeros64(w)) {
				return
			}
		}
	}
}

// Ones returns the indices of all set bits.
func (v *Vec) Ones() []int {
	out := make([]int, 0, v.Count())
	v.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

// Matrix is an m×n bit matrix: m Bloom-filter rows over n attribute
// columns. It is built once and then queried concurrently.
type Matrix struct {
	params bloom.Params
	n      int      // columns (attributes)
	stride int      // words per row
	words  []uint64 // row-major: row b is words[b*stride : (b+1)*stride]
	// counts[c] is the number of set bits of column c, maintained by
	// SetColumn and FillColumns. A column's filter is contained in a query
	// filter iff its hits in the query's set rows equal its count — the
	// per-column form of the subset probe, ≈ |set rows| bit tests where
	// the row form removes every zero row.
	counts []uint32
	// keys indexes the columns for the subset probe; it is derived once,
	// on the first subset probe with a dense base.
	keys     subsetKeys
	keysOnce sync.Once
}

// NewMatrix returns an all-zero matrix for n attributes. Like invalid
// parameters, a filter size the per-column bit counts cannot hold is a
// construction bug and panics.
func NewMatrix(params bloom.Params, n int) *Matrix {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	if uint64(params.M) > math.MaxUint32 {
		panic(fmt.Sprintf("bitmatrix: filter size %d overflows the per-column bit count", params.M))
	}
	stride := (n + 63) / 64
	return &Matrix{params: params, n: n, stride: stride,
		words: make([]uint64, params.M*stride), counts: make([]uint32, n)}
}

// Params returns the Bloom parameters all columns were hashed with.
func (m *Matrix) Params() bloom.Params { return m.params }

// Columns returns the number of attribute columns.
func (m *Matrix) Columns() int { return m.n }

// row returns the words of row b.
func (m *Matrix) row(b int) []uint64 { return m.words[b*m.stride : (b+1)*m.stride] }

// SetColumn ORs the attribute's Bloom filter into column col, counting
// only newly set bits, so re-adding a grown filter (index refresh) keeps
// the column's count exact. It must not run concurrently with queries.
func (m *Matrix) SetColumn(col int, f *bloom.Filter) {
	if f.Params() != m.params {
		panic(fmt.Sprintf("bitmatrix: filter params %v do not match matrix params %v", f.Params(), m.params))
	}
	if col < 0 || col >= m.n {
		panic(fmt.Sprintf("bitmatrix: column %d out of range [0,%d)", col, m.n))
	}
	at, mask := col>>6, uint64(1)<<(uint(col)&63)
	for wi, w := range f.Words() {
		for ; w != 0; w &= w - 1 {
			p := &m.words[(wi<<6+bits.TrailingZeros64(w))*m.stride+at]
			if *p&mask == 0 {
				*p |= mask
				m.counts[col]++
			}
		}
	}
}

// FillColumns ORs every column's value set into the matrix, hashed with
// the matrix's Bloom parameters, counting only newly set bits like
// SetColumn: on an empty matrix, column c ends as Bloom(set(c)). set
// builds column col's values in buf, growing it as needed, and returns
// them; the returned slice comes back as buf for the worker's next column,
// so set must not return storage it shares with anything else. Columns
// are processed in blocks of 64 — one word of every row — which up to
// GOMAXPROCS goroutines claim with one atomic add each, so no two write
// the same word. set is called once per column, from several goroutines
// at once. FillColumns must not run concurrently with queries.
func (m *Matrix) FillColumns(set func(col int, buf values.Set) values.Set) {
	words, stride := m.words, m.stride
	workers := min(runtime.GOMAXPROCS(0), stride)
	var next atomic.Int64
	fill := func() {
		var buf values.Set
		var hashes []int
		for blk := int(next.Add(1)) - 1; blk < stride; blk = int(next.Add(1)) - 1 {
			for col := blk << 6; col < min(blk<<6+64, m.n); col++ {
				buf = set(col, buf[:0])
				mask, added := uint64(1)<<(uint(col)&63), uint32(0)
				for _, v := range buf {
					hashes = m.params.Bits(v, hashes[:0])
					for _, b := range hashes {
						if p := &words[b*stride+blk]; *p&mask == 0 {
							*p |= mask
							added++
						}
					}
				}
				m.counts[col] += added
			}
		}
	}
	if workers <= 1 {
		fill()
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			fill()
		}()
	}
	wg.Wait()
}

// CanFold reports whether half of m's filter width is a valid width
// (bloom.Params.Validate), so Fold may run.
func (m *Matrix) CanFold() bool { return m.params.M%128 == 0 }

// Fold returns m at half its filter width: row r of the result is row r
// OR row r+M/2 of m. Params.Bits hashes a value to (h1+i·h2) mod M, and
// for an even M that position mod M/2 is the value's position at width
// M/2, so the result is the matrix a fill of the same column sets at M/2
// gives, bits and per-column counts alike. m is left as it was. Fold
// panics where CanFold is false.
func (m *Matrix) Fold() *Matrix {
	p := m.params
	p.M /= 2
	f := NewMatrix(p, m.n)
	half := len(f.words)
	for i := range f.words {
		f.words[i] = m.words[i] | m.words[half+i]
	}
	for i, w := range f.words {
		base := (i % f.stride) << 6
		for ; w != 0; w &= w - 1 {
			f.counts[base+bits.TrailingZeros64(w)]++
		}
	}
	return f
}

// FoldedFillRatio returns the FillRatio m.Fold() would have, without
// building it.
func (m *Matrix) FoldedFillRatio() float64 {
	if m.n == 0 {
		return 0
	}
	half, ones := len(m.words)/2, 0
	for i, w := range m.words[:half] {
		ones += bits.OnesCount64(w | m.words[half+i])
	}
	return float64(ones) / (float64(m.params.M/2) * float64(m.n))
}

// Equal reports whether o has m's shape, bits and per-column counts.
func (m *Matrix) Equal(o *Matrix) bool {
	return m.params == o.params && m.n == o.n &&
		slices.Equal(m.words, o.words) && slices.Equal(m.counts, o.counts)
}

// MemoryBytes returns the matrix size in bytes: the |D|·m/8 of the paper's
// index-memory formula plus the per-column bit counts. The subset keys,
// 4 bytes per row and two per column once a probe derived them, are left
// out, so the figure does not depend on which queries ran.
func (m *Matrix) MemoryBytes() int64 {
	return int64(len(m.words))*8 + int64(len(m.counts))*4
}

// FillRatio returns the fraction of set bits over the whole matrix — the
// mean Bloom-filter density of its columns. A ratio near 1 means the
// filters are saturated and prune almost nothing; the paper's m sizing
// (§5.4) trades this against memory.
func (m *Matrix) FillRatio() float64 {
	if m.n == 0 {
		return 0
	}
	total := 0
	for _, c := range m.counts {
		total += int(c)
	}
	return float64(total) / (float64(m.params.M) * float64(m.n))
}

// Supersets narrows the candidate vector to columns whose filter contains
// every set bit of the query filter — the query_index procedure of
// Algorithm 1. The result is base ∧ (∧ rows with query bit set); base is
// not modified. A nil base means all columns.
func (m *Matrix) Supersets(q *bloom.Filter, base *Vec) *Vec {
	out := NewVec(m.n)
	m.SupersetsInto(q, base, out, nil)
	return out
}

// Subsets narrows the candidate vector to columns whose filter is
// contained in the query filter (reverse search, Section 4.1): a candidate
// must have a zero in every row where the query has a zero, so the result
// is base ∧ ¬(∨ rows with query bit clear). base is not modified; a nil
// base means all columns.
func (m *Matrix) Subsets(q *bloom.Filter, base *Vec) *Vec {
	out := NewVec(m.n)
	m.SubsetsInto(q, base, out, nil)
	return out
}

// checkQuery panics on a params mismatch, which always indicates an
// index-construction bug.
func (m *Matrix) checkQuery(q *bloom.Filter) {
	if q.Params() != m.params {
		panic(fmt.Sprintf("bitmatrix: query params %v do not match matrix params %v", q.Params(), m.params))
	}
}

// start opens a probe: it overwrites out with base (every column when base
// is nil) and returns the number of columns in play.
func (m *Matrix) start(q *bloom.Filter, base, out *Vec) int {
	m.checkQuery(q)
	if base == nil {
		out.Fill()
		return m.n
	}
	out.CopyFrom(base)
	return out.Count()
}

// dense reports whether more columns are live than a row has words: the
// superset probe goes on with row operations while they are, and a subset
// probe from such a base starts from its keys. A row operation scans every
// word of a row whatever survives, a per-column test touches one word per
// row it consults. BenchmarkProbe (bench_test.go) is the measurement:
// supersets are flat with the switch from half to twice that many
// columns, slower beyond.
func (m *Matrix) dense(live int) bool { return live > m.stride }

// testWords is the cost of one per-column step of the subset probe — a
// bit test of the finish or a posting of the keys — in words of a row
// pass: a row pass streams four rows per output word, a per-column step is
// a scattered read with its bookkeeping. Of 1, 2, 4, 8, 16 and 32, 8 was
// fastest on BenchmarkSubsetsByFill and on reverse queries at m = 512.
const testWords = 8

// zeroRowsPay reports whether removing the rows zero rows left of a subset
// probe pays. While they outnumber q's nset set rows the finish would
// count every live column's hits in all set rows; once they do not, it
// tests the zero rows with early exit, like the superset finish.
func (m *Matrix) zeroRowsPay(live, rows, nset int) bool {
	if rows <= nset {
		return m.dense(live)
	}
	return testWords*live*nset > rows*m.stride
}

// pass is one step of a probe's dense phase: it folds the next four rows
// (fewer at the end) into out, which is read, written and counted once for
// them — intersected as they are (flip 0, supersets) or complemented
// (flip ^0, subsets: the rows are removed). It returns the live columns
// and the rows left.
func (m *Matrix) pass(out *Vec, rows []int, flip uint64) (int, []int) {
	o := out.words
	// A short last group repeats its final row, which changes nothing.
	k := min(4, len(rows))
	a, b := m.row(rows[0])[:len(o)], m.row(rows[min(1, k-1)])[:len(o)]
	c, d := m.row(rows[min(2, k-1)])[:len(o)], m.row(rows[k-1])[:len(o)]
	live := 0
	for i := range o {
		x := o[i] & (a[i] ^ flip) & (b[i] ^ flip) & (c[i] ^ flip) & (d[i] ^ flip)
		o[i] = x
		live += bits.OnesCount64(x)
	}
	return live, rows[k:]
}

// keep is the sparse phase of a probe: it clears every column of out whose
// bit in one of the listed rows is not want, stopping at the first such row.
func (m *Matrix) keep(out *Vec, rows []int, want bool) {
	for wi, w := range out.words {
		for ; w != 0; w &= w - 1 {
			t := uint(bits.TrailingZeros64(w))
			for _, b := range rows {
				if (m.words[b*m.stride+wi]>>t&1 != 0) != want {
					out.words[wi] &^= 1 << t
					break
				}
			}
		}
	}
}

// SupersetsInto is Supersets writing into a caller-owned vector: out is
// overwritten with the columns of base (all columns when nil) that have
// every set bit of q. It ANDs set-bit rows while more than a sparse set
// survives, then tests each survivor against the remaining rows; a sparse
// base is per-column from the first bit. buf is reused as the bit-list
// scratch and returned (possibly grown) so pooled query arenas allocate
// nothing on the steady state.
func (m *Matrix) SupersetsInto(q *bloom.Filter, base, out *Vec, buf []int) []int {
	live := m.start(q, base, out)
	buf = q.SetBits(buf[:0])
	rows := buf
	for len(rows) > 0 && m.dense(live) {
		live, rows = m.pass(out, rows, 0)
	}
	m.keep(out, rows, true)
	return buf
}

// noKey marks a column with fewer set bits than the key slot asks for.
const noKey = math.MaxUint32

// subsetKeys keys every column on its rarest set row — rows ranked by
// their number of set bits, ties by row — and keeps its second-rarest set
// row as a check: a column contained in q has both keys among q's set
// rows. The key invariant: a key is a set bit of its column, and columns
// only gain bits (SetColumn, FillColumns), so the keys stay necessary
// conditions without upkeep; a column without bits at derivation stays on
// empty, whose columns are candidates of every probe.
type subsetKeys struct {
	start  []uint32 // row b's columns are cols[start[b]:start[b+1]]
	cols   []uint32 // columns grouped by the row they are keyed on
	second []uint32 // per column: its second-rarest set row, or noKey
	empty  []uint32 // columns that had no bit
}

// subsetKeys returns the keys, deriving them on first use. Concurrent
// first probes wait for one derivation.
func (m *Matrix) subsetKeys() *subsetKeys {
	m.keysOnce.Do(m.deriveKeys)
	return &m.keys
}

// deriveKeys walks the rows from the sparsest up: a column's first set
// bit met is its key, the second its check. It stops once every column
// has min(2, count) keys, so the densest rows are rarely read.
func (m *Matrix) deriveKeys() {
	pop := make([]int, m.params.M)
	order := make([]int, m.params.M)
	for b := range order {
		order[b] = b
		for _, w := range m.row(b) {
			pop[b] += bits.OnesCount64(w)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int { return pop[a] - pop[b] })
	first, second := make([]uint32, m.n), make([]uint32, m.n)
	need := 0
	for c := range first {
		first[c], second[c] = noKey, noKey
		need += int(min(m.counts[c], 2))
	}
	for _, b := range order {
		if need == 0 {
			break
		}
		for wi, w := range m.row(b) {
			for ; w != 0; w &= w - 1 {
				c := wi<<6 + bits.TrailingZeros64(w)
				switch {
				case first[c] == noKey:
					first[c] = uint32(b)
				case second[c] == noKey:
					second[c] = uint32(b)
				default:
					continue
				}
				need--
			}
		}
	}
	k := &m.keys
	k.start = make([]uint32, m.params.M+1)
	for c, b := range first {
		if b == noKey {
			k.empty = append(k.empty, uint32(c))
		} else {
			k.start[b+1]++
		}
	}
	for b := range m.params.M {
		k.start[b+1] += k.start[b]
	}
	k.cols = make([]uint32, m.n-len(k.empty))
	at := slices.Clone(k.start[:m.params.M])
	for c, b := range first {
		if b != noKey {
			k.cols[at[b]] = uint32(c)
			at[b]++
		}
	}
	k.second = second
}

// SubsetsInto is Subsets writing into a caller-owned vector: out is
// overwritten with the columns of base (all columns when nil) that have no
// bit outside q. From a dense base the candidates are the columns keyed on
// q's set rows whose check row q holds too, and the columns that had no
// bit (subsetKeys) — unless reading those postings costs more than
// removing q's zero rows, as when q is nearly full. Zero rows are removed
// while that pays (zeroRowsPay); a survivor is then a subset iff its hits
// in q's set rows equal its bit count, or — fewer tests when q is more
// than half full — none of the remaining zero rows holds it. The zero rows
// are listed only where one of the two needs them. buf is the reusable
// bit-list scratch, returned possibly grown.
func (m *Matrix) SubsetsInto(q *bloom.Filter, base, out *Vec, buf []int) []int {
	live := m.start(q, base, out)
	buf = q.SetBits(buf[:0])
	nset := len(buf)
	nzero := m.params.M - nset
	if m.dense(live) {
		if k := m.subsetKeys(); k.within(buf, nzero*m.stride/testWords) {
			live = k.candidates(q, buf, base, out)
		}
	}
	var zero []int
	if nzero <= nset || m.zeroRowsPay(live, nzero, nset) {
		buf = q.ZeroBits(buf)
		zero = buf[nset:]
		for len(zero) > 0 && m.zeroRowsPay(live, len(zero), nset) {
			was := live
			live, zero = m.pass(out, zero, ^uint64(0))
			if testWords*(was-live)*min(len(zero), nset) < 4*m.stride {
				break // the pass removed fewer columns than it cost: the rest are sparse
			}
		}
		nzero = len(zero)
	}
	set := buf[:nset]
	switch {
	case nzero == 0:
	case nzero <= nset:
		m.keep(out, zero, false)
	default:
		// Row-major over the candidates, so each set row is read once.
		at := len(buf)
		buf = out.AppendOnes(buf)
		cols := buf[at:]
		buf = slices.Grow(buf, len(cols))[:len(buf)+len(cols)]
		hits := buf[at+len(cols):]
		clear(hits)
		for _, b := range set {
			row := m.row(b)
			for j, c := range cols {
				hits[j] += int(row[c>>6] >> (uint(c) & 63) & 1)
			}
		}
		for j, c := range cols {
			if hits[j] != int(m.counts[c]) {
				out.Clear(c)
			}
		}
	}
	return buf
}

// within reports whether candidates reads at most limit columns for the
// set rows.
func (k *subsetKeys) within(set []int, limit int) bool {
	n := len(k.empty)
	for _, b := range set {
		if n += int(k.start[b+1] - k.start[b]); n > limit {
			return false
		}
	}
	return n <= limit
}

// candidates overwrites out with the subset candidates of q among base
// (all columns when nil) and returns their number: the columns keyed on
// q's set rows whose check row is set in q, and the columns that had no
// bit when the keys were derived.
func (k *subsetKeys) candidates(q *bloom.Filter, set []int, base, out *Vec) int {
	out.Reset()
	for _, b := range set {
		for _, c := range k.cols[k.start[b]:k.start[b+1]] {
			if s := k.second[c]; s == noKey || q.Bit(int(s)) {
				out.Set(int(c))
			}
		}
	}
	for _, c := range k.empty {
		out.Set(int(c))
	}
	if base != nil {
		out.And(base)
	}
	return out.Count()
}

// ViolatorsInto overwrites out with the columns of base (all columns when
// nil) whose filter is NOT contained in q — base ∧ ¬Subsets(q, base); the
// time-slice pruning of reverse tIND search uses it to find attributes
// that must be violated in a slice. out must not alias base. buf is the
// reusable bit-list scratch, returned possibly grown.
func (m *Matrix) ViolatorsInto(q *bloom.Filter, base, out *Vec, buf []int) []int {
	buf = m.SubsetsInto(q, base, out, buf)
	for i := range out.words {
		w := ^uint64(0)
		if base != nil {
			w = base.words[i]
		}
		out.words[i] = w &^ out.words[i]
	}
	out.clearTail()
	return buf
}

// SupersetsBatch runs the superset probe for many query filters in one
// row-major sweep: each matrix row is visited once and ANDed into every
// batch entry whose filter has that bit set, so one row load services the
// whole batch. outs[i] must be pre-initialized to the i-th entry's base
// candidate set (typically full) and is narrowed in place. The returned
// counters quantify the amortization: loads is the number of rows
// visited by at least one query, hits the number of per-query row
// applications a query-at-a-time execution would have loaded rows for.
// The sweep shares row loads but not the AND per (row, entry), which is
// the work, so the index probes per entry instead; only the benchmark's
// layer probe still calls it.
func (m *Matrix) SupersetsBatch(qs []*bloom.Filter, outs []*Vec) (loads, hits int) {
	if len(qs) != len(outs) {
		panic(fmt.Sprintf("bitmatrix: SupersetsBatch got %d filters for %d outputs", len(qs), len(outs)))
	}
	for _, q := range qs {
		m.checkQuery(q)
	}
	for b := 0; b < m.params.M; b++ {
		row := m.row(b)
		loaded := false
		for i, q := range qs {
			if !q.Bit(b) {
				continue
			}
			loaded = true
			hits++
			for j, w := range row {
				outs[i].words[j] &= w
			}
		}
		if loaded {
			loads++
		}
	}
	return loads, hits
}
