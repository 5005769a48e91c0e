package index

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"tind/internal/bitmatrix"
	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/timeline"
	"tind/internal/values"
)

// prefixSlack is the relative float error, of MaxViolation(A), that the
// prefix bound forgives before it prunes: the bound subtracts one sum from
// another in an order the validator never uses, so an attribute whose
// bound lies within rounding of ε is left to validation.
const prefixSlack = 1e-9

// noPrefix marks an empty version in the build's per-version key table:
// it holds no value, so no query can cover or violate it.
const noPrefix = values.Value(math.MaxUint32)

// openEnd marks the end of a column's last version in its entry: that
// version lasts until the column's observation end, which the index keeps
// once per column (prefixIndex.ends), so an append that only grows the
// last version touches no entry. Timestamps fit an int32, since Build and
// Refresh refuse a horizon beyond timeline.MaxHorizon, and no real end is
// MinInt32: an end lies after its version's start, which is at least 0.
const openEnd = math.MinInt32

// prefixEntry names one indexed version, version `version` of the
// attribute in column `attr`, and carries its validity [start, end), or
// [start, ends[attr]) when end is openEnd.
type prefixEntry struct {
	attr, version int32
	start, end    int32
}

// prefixIndex is the weighted prefix index reverse search generates its
// candidates from wherever M_R cannot serve the query (DESIGN §5.2). It
// rests on one fact: a version of A holding a value outside All(Q) is
// violated for its whole validity, whatever δ is. Every non-empty version
// of every attribute is indexed exactly once, under its value of smallest
// build-time document frequency, so the versions of A that a query could
// cover at all are among the entries of All(Q)'s postings, and
//
//	violation(A ⊆ Q) ≥ MaxViolation(A, w) − Σ w(versions of A listed under All(Q)).
//
// Any choice of the indexed value is sound; frequency only makes the
// postings a query reads short. It is the prefix filter of Bayardo et al.
// (Scaling Up All Pairs Similarity Search), specialised to containment.
//
// The build's postings are one array ordered by value, delimited by
// 4-byte offsets: a list header per value id would cost 24 bytes on every
// shard for every id of the shared dictionary, which is most of the
// structure on a 4-shard C8k. Refresh appends to a per-value list of its
// own, so it never moves the build's entries. Each entry carries its
// version's validity, so a query walks its postings in order and never
// reads a history.
type prefixIndex struct {
	// entries[offsets[v]:offsets[v+1]] lists the versions the build
	// indexed under value v, in byColumn order.
	offsets []int32
	entries []prefixEntry
	// appended[v] lists the versions refreshes indexed under v since.
	appended map[values.Value][]prefixEntry
	// ends[a] is column a's observation end: the end of its last version.
	ends []int32
	// df[v] is value v's document frequency at build: how many attributes
	// hold it, saturating at math.MaxUint16 (values that common tie, and
	// are broken by id). It is frozen; values interned later count as 0.
	df []uint16
	// indexed[a] is how many of attribute a's versions are indexed.
	indexed []int32
	// maxVio[a] is core.MaxViolation(A, w) under the index weight, and
	// order lists the columns ascending by it, ties by column. The columns
	// a query may keep without reading a posting are a prefix of order.
	maxVio []float64
	order  []int32
}

// buildPrefix indexes every non-empty version of attrs and records each
// attribute's maximum violation under w. Choosing the versions' values is
// parallel over attributes; laying out the postings is a counting sort.
func buildPrefix(attrs []*history.History, w timeline.WeightFunc) prefixIndex {
	n := len(attrs)
	px := prefixIndex{indexed: make([]int32, n), ends: make([]int32, n), maxVio: make([]float64, n)}
	// Per attribute, the offset of its first version in the key table.
	first := make([]int, n+1)
	for a, h := range attrs {
		first[a+1] = first[a] + h.NumVersions()
		all := h.AllValues()
		if len(all) > 0 && int(all[len(all)-1]) >= len(px.df) {
			px.df = append(px.df, make([]uint16, int(all[len(all)-1])+1-len(px.df))...)
		}
		for _, v := range all {
			if px.df[v] < math.MaxUint16 {
				px.df[v]++
			}
		}
	}
	nv := len(px.df)

	keys := make([]values.Value, first[n])
	parallelFor(n, func(a int) {
		h := attrs[a]
		for i := range h.NumVersions() {
			keys[first[a]+i] = px.prefix(h.Version(i).Values)
		}
		px.indexed[a] = int32(h.NumVersions())
		px.ends[a] = int32(h.ObservedUntil())
		px.maxVio[a] = core.MaxViolation(h, w)
	})
	px.order = make([]int32, n)
	for a := range px.order {
		px.order[a] = int32(a)
	}
	slices.SortFunc(px.order, px.byMaxVio)

	px.offsets = make([]int32, nv+1)
	for _, v := range keys {
		if v != noPrefix {
			px.offsets[v+1]++
		}
	}
	for v := range nv {
		px.offsets[v+1] += px.offsets[v]
	}
	px.entries = make([]prefixEntry, px.offsets[nv])
	next := slices.Clone(px.offsets[:nv])
	for a, h := range attrs {
		for i, v := range keys[first[a]:first[a+1]] {
			if v != noPrefix {
				px.entries[next[v]] = newEntry(h, a, i)
				next[v]++
			}
		}
	}
	return px
}

// newEntry returns version i of h, in column a, as an entry: its validity
// with an open end on the last version.
func newEntry(h *history.History, a, i int) prefixEntry {
	e := prefixEntry{int32(a), int32(i), int32(h.Version(i).Start), openEnd}
	if i+1 < h.NumVersions() {
		e.end = int32(h.ValidUntil(i))
	}
	return e
}

// byColumn orders entries by column, then version: the order of each of
// the build's lists.
func byColumn(e, f prefixEntry) int {
	return cmp.Or(cmp.Compare(e.attr, f.attr), cmp.Compare(e.version, f.version))
}

// byMaxVio orders columns ascending by maximum violation, ties by column.
func (px *prefixIndex) byMaxVio(a, b int32) int {
	return cmp.Or(cmp.Compare(px.maxVio[a], px.maxVio[b]), cmp.Compare(a, b))
}

// postings returns the versions indexed under v: the build's, then the
// ones refreshes added.
func (px *prefixIndex) postings(v values.Value) (built, added []prefixEntry) {
	if int(v)+1 < len(px.offsets) {
		built = px.entries[px.offsets[v]:px.offsets[v+1]]
	}
	return built, px.appended[v]
}

// lookup returns the entry of column a's version i, indexed under v.
func (px *prefixIndex) lookup(v values.Value, a, i int32) *prefixEntry {
	built, added := px.postings(v)
	key := prefixEntry{attr: a, version: i}
	if k, ok := slices.BinarySearchFunc(built, key, byColumn); ok {
		return &built[k]
	}
	return &added[slices.IndexFunc(added, func(e prefixEntry) bool { return byColumn(e, key) == 0 })]
}

// prefix returns the value a version with value set s is indexed under:
// the one of smallest build-time document frequency, ties by value id, or
// noPrefix for the empty set.
func (px *prefixIndex) prefix(s values.Set) values.Value {
	best, bestDF := noPrefix, math.MaxUint16+1
	freq := px.df
	for _, v := range s {
		df := 0
		if int(v) < len(freq) {
			df = int(freq[v])
		}
		if df < bestDF {
			best, bestDF = v, df
		}
	}
	return best
}

// refresh indexes the versions of column a, now history h, from the count
// it had indexed on, and recomputes its observation end and its maximum
// violation under w. Appends only add versions at a history's end, so
// nothing already indexed moves; the former last version, if it was
// indexed and versions followed it, gets its end in place of the open
// one. The caller restores order (reorder) once every column is done.
func (px *prefixIndex) refresh(a int, h *history.History, w timeline.WeightFunc) {
	from := int(px.indexed[a])
	if last := from - 1; from < h.NumVersions() {
		if v := px.prefix(h.Version(last).Values); v != noPrefix {
			px.lookup(v, int32(a), int32(last)).end = int32(h.ValidUntil(last))
		}
	}
	for i := from; i < h.NumVersions(); i++ {
		v := px.prefix(h.Version(i).Values)
		if v == noPrefix {
			continue
		}
		if px.appended == nil {
			px.appended = make(map[values.Value][]prefixEntry)
		}
		px.appended[v] = append(px.appended[v], newEntry(h, a, i))
	}
	px.indexed[a] = int32(h.NumVersions())
	px.ends[a] = int32(h.ObservedUntil())
	px.maxVio[a] = core.MaxViolation(h, w)
}

// reorder restores order after the maximum violations of cols changed:
// it lifts them out and merges them back in, from the back.
func (px *prefixIndex) reorder(cols []int) {
	if len(cols) == 0 {
		return
	}
	order := px.order
	lifted := make([]bool, len(order))
	moved := make([]int32, 0, len(cols))
	for _, a := range cols {
		if !lifted[a] {
			lifted[a] = true
			moved = append(moved, int32(a))
		}
	}
	slices.SortFunc(moved, px.byMaxVio)
	kept := slices.DeleteFunc(order, func(a int32) bool { return lifted[a] })
	i, j := len(kept)-1, len(moved)-1
	for k := len(order) - 1; j >= 0; k-- {
		if i >= 0 && px.byMaxVio(kept[i], moved[j]) > 0 {
			order[k], i = kept[i], i-1
		} else {
			order[k], j = moved[j], j-1
		}
	}
}

// memoryBytes is what the structure holds: the entries with their
// offsets, the refresh lists (a value id and a list header each, map
// overhead left out), the frozen frequencies and the per-attribute
// counts, ends, bounds and order.
func (px *prefixIndex) memoryBytes() int64 {
	b := int64(len(px.entries))*16 + int64(len(px.offsets))*4 + int64(len(px.df))*2 +
		int64(len(px.indexed))*4 + int64(len(px.ends))*4 + int64(len(px.maxVio))*8 +
		int64(len(px.order))*4
	for _, l := range px.appended {
		b += 4 + 24 + int64(cap(l))*16
	}
	return b
}

// prefixCandidates is reverse phase 1 where M_R does not cover the query:
// it sets cand to every attribute whose prefix bound MaxViolation(A, w) −
// covered(A) is within ε, where covered(A) sums the weight of A's versions
// listed under All(Q). The walk reads each entry's validity from it and
// lists a column the first time a posting covers it; only the listed
// columns are bounded and reset. An attribute no posting names is a
// candidate iff MaxViolation(A, w) ≤ ε: under the index weight those are
// a prefix of the index's order, and the walk down it stops at the first
// column over ε. Under another weight, MaxViolation is computed for this
// query and every column is tested. Every pass only sets bits: a bound
// within ε stays within ε under a larger cover, so a test that reads too
// small a cover, the empty one included, never sets a wrong bit.
func (r *queryRun) prefixCandidates(q *history.History, p core.Params, cand *bitmatrix.Vec) {
	x, ar := r.x, r.ar
	px := &x.px
	n := len(x.cols)
	if len(ar.covered) != n {
		ar.covered = make([]float64, n)
	}
	covered, touched, ends := ar.covered, ar.touched[:0], px.ends
	w, hz := p.Weight, p.Weight.Horizon()
	cand.Reset()
	read := 0
	for _, v := range q.AllValues() {
		built, added := px.postings(v)
		for _, list := range [2][]prefixEntry{built, added} {
			read += len(list)
			for _, e := range list {
				iv := timeline.Interval{Start: timeline.Time(e.start), End: timeline.Time(e.end)}
				if e.end == openEnd {
					iv.End = timeline.Time(ends[e.attr])
				}
				// A cover that sums to zero leaves covered(A) at 0, so A
				// may be listed again; the pass over the list tolerates it.
				cv := covered[e.attr]
				if cv == 0 {
					touched = append(touched, e.attr)
				}
				covered[e.attr] = cv + w.Sum(iv.Clamp(hz))
			}
		}
	}
	ar.touched = touched
	qm[r.mode].prefixEntries.Add(int64(read))

	maxVio, native := px.maxVio, sameWeight(w, x.opt.Params.Weight)
	if !native {
		if len(ar.maxVio) != n {
			ar.maxVio = make([]float64, n)
		}
		maxVio = ar.maxVio
		for a, h := range x.cols {
			maxVio[a] = core.MaxViolation(h, w)
		}
	}
	// A listed column is a candidate iff its bound is within ε; a repeat
	// reads covered(A) = 0 and so sets nothing its first listing did not.
	for _, a := range touched {
		if mv := maxVio[a]; mv-covered[a]-p.Epsilon <= prefixSlack*mv {
			cand.Set(int(a))
		}
		covered[a] = 0
	}
	if !native {
		for a, mv := range maxVio {
			if mv-p.Epsilon <= prefixSlack*mv {
				cand.Set(a)
			}
		}
		return
	}
	// mv − ε and prefixSlack·mv rise together, the first faster, so the
	// test holds on a prefix of the order.
	for _, a := range px.order {
		if mv := maxVio[a]; mv-p.Epsilon > prefixSlack*mv {
			break
		}
		cand.Set(int(a))
	}
}

// CheckPrefix reports the first way the prefix index differs from a fresh
// build over the current histories — a non-empty version not indexed
// exactly once under one of its own values, an entry naming an empty or
// missing version, an entry whose validity is not its version's (open
// exactly on a last version), an observation end, maximum violation or
// order position unlike a fresh build's — and nil when it matches. That
// is the invariant Build and Refresh keep. It reads every version, so it
// is a check for tests, not for queries.
func (x *Index) CheckPrefix() error {
	x.mu.RLock()
	defer x.mu.RUnlock()
	px := &x.px
	seen := make(map[[2]int32]bool)
	check := func(v values.Value, list []prefixEntry) error {
		for _, e := range list {
			if int(e.attr) >= len(x.cols) || int(e.version) >= x.cols[e.attr].NumVersions() {
				return fmt.Errorf("index: prefix entry %v under value %d names no version", e, v)
			}
			h := x.cols[e.attr]
			if !h.Version(int(e.version)).Values.Contains(v) {
				return fmt.Errorf("index: column %d version %d is indexed under value %d it does not hold",
					e.attr, e.version, v)
			}
			if seen[[2]int32{e.attr, e.version}] {
				return fmt.Errorf("index: column %d version %d is indexed twice", e.attr, e.version)
			}
			seen[[2]int32{e.attr, e.version}] = true
			if want := newEntry(h, int(e.attr), int(e.version)); e != want {
				return fmt.Errorf("index: column %d version %d is valid over [%d, %d), a fresh build [%d, %d)",
					e.attr, e.version, e.start, e.end, want.start, want.end)
			}
		}
		return nil
	}
	for v := range values.Value(len(px.offsets) - 1) {
		built, _ := px.postings(v)
		if !slices.IsSortedFunc(built, byColumn) {
			return fmt.Errorf("index: the build's postings of value %d are out of order", v)
		}
		if err := check(v, built); err != nil {
			return err
		}
	}
	for v, added := range px.appended {
		if err := check(v, added); err != nil {
			return err
		}
	}
	if len(px.ends) != len(x.cols) || len(px.order) != len(x.cols) {
		return fmt.Errorf("index: %d ends and %d order positions for %d columns", len(px.ends), len(px.order), len(x.cols))
	}
	order := make([]int32, len(x.cols))
	for a, h := range x.cols {
		for i := range h.NumVersions() {
			if !h.Version(i).Values.IsEmpty() && !seen[[2]int32{int32(a), int32(i)}] {
				return fmt.Errorf("index: column %d version %d is not indexed", a, i)
			}
		}
		if got, want := px.ends[a], int32(h.ObservedUntil()); got != want {
			return fmt.Errorf("index: column %d has observation end %d, a fresh build %d", a, got, want)
		}
		if got, want := px.maxVio[a], core.MaxViolation(h, x.opt.Params.Weight); got != want {
			return fmt.Errorf("index: column %d has maximum violation %g, a fresh build %g", a, got, want)
		}
		order[a] = int32(a)
	}
	slices.SortFunc(order, px.byMaxVio)
	for k, a := range order {
		if px.order[k] != a {
			return fmt.Errorf("index: position %d of the maximum-violation order holds column %d, a fresh build %d",
				k, px.order[k], a)
		}
	}
	return nil
}
