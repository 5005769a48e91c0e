// Package history models versioned attributes (columns) extracted from
// Wikipedia table histories, the input of temporal IND discovery.
//
// An attribute history is a sequence of versions: each version carries the
// set of cell values of the column and is valid from its start timestamp
// until the next version begins (or the attribute's observation ends).
// Timestamps are day indices (see package timeline); the preprocessing
// pipeline guarantees at most one version per day.
package history

import (
	"fmt"
	"sort"
	"sync"

	"tind/internal/timeline"
	"tind/internal/values"
)

// AttrID identifies an attribute within a Dataset (dense, 0-based).
type AttrID int

// Meta carries the provenance of an attribute: which page, table and column
// of the corpus it was extracted from.
type Meta struct {
	Page   string // Wikipedia page title
	Table  string // stable table identifier within the page
	Column string // column header (most recent spelling)
}

// String renders the provenance as page/table/column.
func (m Meta) String() string { return m.Page + "/" + m.Table + "/" + m.Column }

// Version is one state of an attribute: the value set that holds from Start
// until the start of the next version.
type Version struct {
	Start  timeline.Time
	Values values.Set
}

// History is the full version history of one attribute. Histories are
// immutable after construction; all mutation goes through Builder.
type History struct {
	id       AttrID
	meta     Meta
	versions []Version     // sorted by Start, consecutive value sets differ
	end      timeline.Time // observation end (exclusive)
	all      values.Set    // union of all version value sets
}

// New constructs a History from already-sorted versions. It validates the
// version invariants: ascending starts, no consecutive duplicates, and a
// non-empty observation window. Most callers should use Builder instead.
func New(meta Meta, versions []Version, end timeline.Time) (*History, error) {
	if len(versions) == 0 {
		return nil, fmt.Errorf("history %s: no versions", meta)
	}
	for i := 1; i < len(versions); i++ {
		if versions[i].Start <= versions[i-1].Start {
			return nil, fmt.Errorf("history %s: version starts not strictly ascending at index %d", meta, i)
		}
		if versions[i].Values.Equal(versions[i-1].Values) {
			return nil, fmt.Errorf("history %s: consecutive identical versions at index %d", meta, i)
		}
	}
	if end <= versions[len(versions)-1].Start {
		return nil, fmt.Errorf("history %s: observation end %d not after last version start %d",
			meta, end, versions[len(versions)-1].Start)
	}
	h := &History{id: -1, meta: meta, versions: versions, end: end}
	h.all = h.appendUnion(nil, 0, len(versions))
	return h, nil
}

// ID returns the dataset-assigned attribute id, or -1 when the history was
// never registered with a dataset (ad-hoc query attributes).
func (h *History) ID() AttrID { return h.id }

// Clone returns an unregistered shallow copy of the history: same meta,
// versions and value sets (shared, per their immutability contract), but
// id -1 until Dataset.Replace registers it. Live ingestion appends to a
// clone and swaps it in, so readers holding the published history never
// see it change. Appends to the original do not affect a clone: Append
// replaces the version-slice header and the value-set union rather than
// mutating the elements a clone's headers reach. An index's copy of each
// column it holds relies on the same property (index.BuildOver).
func (h *History) Clone() *History {
	c := *h
	c.id = -1
	return &c
}

// Meta returns the attribute's provenance.
func (h *History) Meta() Meta { return h.meta }

// NumVersions returns the number of distinct versions.
func (h *History) NumVersions() int { return len(h.versions) }

// NumChanges returns the number of changes (versions minus one), the
// quantity the paper buckets attributes by in Table 2.
func (h *History) NumChanges() int { return len(h.versions) - 1 }

// ObservedFrom returns the first timestamp at which the attribute exists.
func (h *History) ObservedFrom() timeline.Time { return h.versions[0].Start }

// ObservedUntil returns the end (exclusive) of the observation window.
func (h *History) ObservedUntil() timeline.Time { return h.end }

// Lifespan returns the interval during which the attribute is observable.
func (h *History) Lifespan() timeline.Interval {
	return timeline.NewInterval(h.versions[0].Start, h.end)
}

// Version returns the i-th version.
func (h *History) Version(i int) Version { return h.versions[i] }

// ValidUntil returns the end (exclusive) of the i-th version's validity.
func (h *History) ValidUntil(i int) timeline.Time {
	if i+1 < len(h.versions) {
		return h.versions[i+1].Start
	}
	return h.end
}

// Validity returns the validity interval of the i-th version.
func (h *History) Validity(i int) timeline.Interval {
	return timeline.NewInterval(h.versions[i].Start, h.ValidUntil(i))
}

// versionIndexAt returns the index of the version valid at t, or -1 when
// the attribute is not observable at t.
func (h *History) versionIndexAt(t timeline.Time) int {
	if t < h.versions[0].Start || t >= h.end {
		return -1
	}
	return h.firstStartAtOrAfter(t+1) - 1 // last version with Start <= t
}

// firstStartAtOrAfter returns the index of the first version starting at
// or after t, NumVersions() when there is none.
func (h *History) firstStartAtOrAfter(t timeline.Time) int {
	lo, hi := 0, len(h.versions)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if h.versions[m].Start < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// At returns the value set A[t]: the values of the version valid at t, or
// the empty set when the attribute is not observable at t.
func (h *History) At(t timeline.Time) values.Set {
	i := h.versionIndexAt(t)
	if i < 0 {
		return nil
	}
	return h.versions[i].Values
}

// AllValues returns A[T], the union of all values the attribute ever held.
// The returned set is shared and must not be mutated.
func (h *History) AllValues() values.Set { return h.all }

// versionRange returns the half-open range [lo, hi) of version indices
// whose validity intersects the interval. The empty range is (0, 0).
func (h *History) versionRange(i timeline.Interval) (lo, hi int) {
	i = i.Intersect(h.Lifespan())
	if i.IsEmpty() {
		return 0, 0
	}
	return h.versionIndexAt(i.Start), h.firstStartAtOrAfter(i.End)
}

// Union returns A[I]: the union of all value sets of versions whose
// validity overlaps the interval (clamped to the observation window).
func (h *History) Union(i timeline.Interval) values.Set { return h.AppendUnion(nil, i) }

// AppendUnion appends A[I] to dst and returns the extended slice — Union
// on caller-owned storage, for the index build, which hashes one union per
// attribute and slice and keeps none of them.
func (h *History) AppendUnion(dst values.Set, i timeline.Interval) values.Set {
	lo, hi := h.versionRange(i)
	return h.appendUnion(dst, lo, hi)
}

// mergeBufs is the pair of buffers a union of many versions alternates
// between: each version is merged from one into the other, so a union
// costs no allocation per version.
type mergeBufs struct{ a, b values.Set }

var mergePool = sync.Pool{New: func() any { return new(mergeBufs) }}

// appendUnion appends the union of versions [lo, hi) to dst.
func (h *History) appendUnion(dst values.Set, lo, hi int) values.Set {
	switch hi - lo {
	case 0:
		return dst
	case 1:
		return append(dst, h.versions[lo].Values...)
	}
	m := mergePool.Get().(*mergeBufs)
	acc, next := append(m.a[:0], h.versions[lo].Values...), m.b
	for k := lo + 1; k < hi; k++ {
		next = values.AppendUnion(next[:0], acc, h.versions[k].Values)
		acc, next = next, acc
	}
	dst = append(dst, acc...)
	m.a, m.b = acc, next
	mergePool.Put(m)
	return dst
}

// DistinctValuesIn returns |A[I]| without materializing the union when the
// range covers zero or one version. It backs the pruning-power estimate
// p(I) of Section 4.4.2.
func (h *History) DistinctValuesIn(i timeline.Interval) int {
	lo, hi := h.versionRange(i)
	switch hi - lo {
	case 0:
		return 0
	case 1:
		return h.versions[lo].Values.Len()
	default:
		return h.Union(i).Len()
	}
}

// ChangeTimes returns the timestamps at which the attribute changed,
// including the first observation (V_A in Algorithm 2).
func (h *History) ChangeTimes() []timeline.Time {
	out := make([]timeline.Time, len(h.versions))
	for i, v := range h.versions {
		out[i] = v.Start
	}
	return out
}

// MedianCardinality returns the median value-set size across versions,
// used by the paper's §5.1 filter (median ≥ 5).
func (h *History) MedianCardinality() int {
	sizes := make([]int, len(h.versions))
	for i, v := range h.versions {
		sizes[i] = v.Values.Len()
	}
	sort.Ints(sizes)
	return sizes[len(sizes)/2]
}
