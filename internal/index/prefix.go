package index

import (
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

// prefixEntry names one indexed version: version `version` of the
// attribute in column `attr`.
type prefixEntry struct {
	attr, version int32
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
// own, so it never moves the build's entries.
type prefixIndex struct {
	// entries[offsets[v]:offsets[v+1]] lists the versions the build
	// indexed under value v.
	offsets []int32
	entries []prefixEntry
	// appended[v] lists the versions refreshes indexed under v since.
	appended map[values.Value][]prefixEntry
	// df[v] is value v's document frequency at build: how many attributes
	// hold it, saturating at math.MaxUint16 (values that common tie, and
	// are broken by id). It is frozen; values interned later count as 0.
	df []uint16
	// indexed[a] is how many of attribute a's versions are indexed.
	indexed []int32
	// maxVio[a] is core.MaxViolation(A, w) under the index weight.
	maxVio []float64
}

// buildPrefix indexes every non-empty version of attrs and records each
// attribute's maximum violation under w. Choosing the versions' values is
// parallel over attributes; laying out the postings is a counting sort.
func buildPrefix(attrs []*history.History, w timeline.WeightFunc) prefixIndex {
	n := len(attrs)
	px := prefixIndex{indexed: make([]int32, n), maxVio: make([]float64, n)}
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
		px.maxVio[a] = core.MaxViolation(h, w)
	})

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
	for a := range attrs {
		for i, v := range keys[first[a]:first[a+1]] {
			if v != noPrefix {
				px.entries[next[v]] = prefixEntry{int32(a), int32(i)}
				next[v]++
			}
		}
	}
	return px
}

// postings returns the versions indexed under v: the build's, then the
// ones refreshes added.
func (px *prefixIndex) postings(v values.Value) (built, added []prefixEntry) {
	if int(v)+1 < len(px.offsets) {
		built = px.entries[px.offsets[v]:px.offsets[v+1]]
	}
	return built, px.appended[v]
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
// it had indexed on and recomputes its maximum violation under w. Appends
// only add versions at a history's end, and a grown last version's weight
// is read live by every query, so nothing already indexed moves.
func (px *prefixIndex) refresh(a int, h *history.History, w timeline.WeightFunc) {
	for i := int(px.indexed[a]); i < h.NumVersions(); i++ {
		v := px.prefix(h.Version(i).Values)
		if v == noPrefix {
			continue
		}
		if px.appended == nil {
			px.appended = make(map[values.Value][]prefixEntry)
		}
		px.appended[v] = append(px.appended[v], prefixEntry{int32(a), int32(i)})
	}
	px.indexed[a] = int32(h.NumVersions())
	px.maxVio[a] = core.MaxViolation(h, w)
}

// memoryBytes is what the structure holds: the entries with their
// offsets, the refresh lists (a value id and a list header each, map
// overhead left out), the frozen frequencies and the per-attribute counts
// and bounds.
func (px *prefixIndex) memoryBytes() int64 {
	b := int64(len(px.entries))*8 + int64(len(px.offsets))*4 + int64(len(px.df))*2 +
		int64(len(px.indexed))*4 + int64(len(px.maxVio))*8
	for _, l := range px.appended {
		b += 4 + 24 + int64(cap(l))*8
	}
	return b
}

// prefixCandidates is reverse phase 1 where M_R does not cover the query:
// it sets cand to every attribute whose prefix bound MaxViolation(A, w) −
// covered(A) is within ε, where covered(A) sums the weight of A's versions
// listed under All(Q). An attribute no posting names is a candidate iff
// MaxViolation(A, w) ≤ ε. Weights are read live, so a last version that
// grew since its entry was written needs no maintenance; under a weight
// other than the index's, MaxViolation is computed for this query.
func (r *queryRun) prefixCandidates(q *history.History, p core.Params, cand *bitmatrix.Vec) {
	x, ar := r.x, r.ar
	px := &x.px
	n := len(x.cols)
	if len(ar.covered) != n {
		ar.covered = make([]float64, n)
	}
	covered, w := ar.covered, p.Weight
	read := 0
	for _, v := range q.AllValues() {
		built, added := px.postings(v)
		for _, list := range [2][]prefixEntry{built, added} {
			read += len(list)
			for _, e := range list {
				h := x.cols[e.attr]
				covered[e.attr] += w.Sum(h.Validity(int(e.version)).Clamp(w.Horizon()))
			}
		}
	}
	qm[r.mode].prefixEntries.Add(int64(read))

	maxVio := px.maxVio
	if !sameWeight(w, x.opt.Params.Weight) {
		if len(ar.maxVio) != n {
			ar.maxVio = make([]float64, n)
		}
		maxVio = ar.maxVio
		for a, h := range x.cols {
			maxVio[a] = core.MaxViolation(h, w)
		}
	}
	cand.Reset()
	for a, mv := range maxVio {
		if mv-covered[a]-p.Epsilon <= prefixSlack*mv {
			cand.Set(a)
		}
		covered[a] = 0
	}
}

// CheckPrefix reports the first way the prefix index differs from a fresh
// build over the current histories — a non-empty version not indexed
// exactly once under one of its own values, an entry naming an empty or
// missing version, or a maximum violation that is not value-equal to
// core.MaxViolation under the index weight — and nil when it matches.
// That is the invariant Build and Refresh keep. It reads every version,
// so it is a check for tests, not for queries.
func (x *Index) CheckPrefix() error {
	x.mu.RLock()
	defer x.mu.RUnlock()
	seen := make(map[prefixEntry]bool)
	check := func(v values.Value, list []prefixEntry) error {
		for _, e := range list {
			if int(e.attr) >= len(x.cols) || int(e.version) >= x.cols[e.attr].NumVersions() {
				return fmt.Errorf("index: prefix entry %v under value %d names no version", e, v)
			}
			if !x.cols[e.attr].Version(int(e.version)).Values.Contains(v) {
				return fmt.Errorf("index: column %d version %d is indexed under value %d it does not hold",
					e.attr, e.version, v)
			}
			if seen[e] {
				return fmt.Errorf("index: column %d version %d is indexed twice", e.attr, e.version)
			}
			seen[e] = true
		}
		return nil
	}
	for v := range values.Value(len(x.px.offsets) - 1) {
		built, _ := x.px.postings(v)
		if err := check(v, built); err != nil {
			return err
		}
	}
	for v, added := range x.px.appended {
		if err := check(v, added); err != nil {
			return err
		}
	}
	for a, h := range x.cols {
		for i := range h.NumVersions() {
			if !h.Version(i).Values.IsEmpty() && !seen[prefixEntry{int32(a), int32(i)}] {
				return fmt.Errorf("index: column %d version %d is not indexed", a, i)
			}
		}
		if got, want := x.px.maxVio[a], core.MaxViolation(h, x.opt.Params.Weight); got != want {
			return fmt.Errorf("index: column %d has maximum violation %g, a fresh build %g", a, got, want)
		}
	}
	return nil
}
