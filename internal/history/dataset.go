package history

import (
	"fmt"
	"sort"

	"tind/internal/timeline"
	"tind/internal/values"
)

// Dataset is the set of attribute histories D under analysis, together with
// the shared value dictionary and the observation horizon n = |T|.
type Dataset struct {
	dict    *values.Dictionary
	attrs   []*History
	horizon timeline.Time
}

// NewDataset returns an empty dataset over a fresh dictionary with the
// given observation horizon (number of daily timestamps).
func NewDataset(horizon timeline.Time) *Dataset {
	return &Dataset{dict: values.NewDictionary(), horizon: horizon}
}

// Dict returns the dataset's value dictionary.
func (d *Dataset) Dict() *values.Dictionary { return d.dict }

// Horizon returns n, the number of timestamps in the observation period.
func (d *Dataset) Horizon() timeline.Time { return d.horizon }

// Len returns |D|, the number of attributes.
func (d *Dataset) Len() int { return len(d.attrs) }

// Attr returns the attribute with the given id.
func (d *Dataset) Attr(id AttrID) *History { return d.attrs[id] }

// Attrs returns the backing slice of all attributes; callers must not
// modify it.
func (d *Dataset) Attrs() []*History { return d.attrs }

// Add registers a history with the dataset, assigning its AttrID. The
// history's observation window must fit the horizon.
func (d *Dataset) Add(h *History) (AttrID, error) {
	if h.end > d.horizon {
		return 0, fmt.Errorf("history %s: observation end %d exceeds dataset horizon %d", h.meta, h.end, d.horizon)
	}
	if h.versions[0].Start < 0 {
		return 0, fmt.Errorf("history %s: negative first observation %d", h.meta, h.versions[0].Start)
	}
	id := AttrID(len(d.attrs))
	h.id = id
	d.attrs = append(d.attrs, h)
	return id, nil
}

// Replace swaps the history registered under id for h, assigning h the
// id in place. The replacement must satisfy the same invariants Add
// enforces. Live ingestion uses it to swap an updated clone of a changed
// attribute into the dataset; callers must hold whatever lock protects
// readers of the dataset (index.RefreshWith does).
func (d *Dataset) Replace(id AttrID, h *History) error {
	if id < 0 || int(id) >= len(d.attrs) {
		return fmt.Errorf("history: Replace id %d out of range [0, %d)", id, len(d.attrs))
	}
	if h.end > d.horizon {
		return fmt.Errorf("history %s: observation end %d exceeds dataset horizon %d", h.meta, h.end, d.horizon)
	}
	if h.versions[0].Start < 0 {
		return fmt.Errorf("history %s: negative first observation %d", h.meta, h.versions[0].Start)
	}
	h.id = id
	d.attrs[id] = h
	return nil
}

// Subset returns a new dataset view containing only the first n attributes,
// sharing histories and dictionary with the receiver. Experiments use it to
// sweep the number of indexed attributes over one generated corpus.
// AttrIDs are reassigned for the view, so histories must not be used with
// both datasets concurrently.
func (d *Dataset) Subset(n int) *Dataset {
	if n > len(d.attrs) {
		n = len(d.attrs)
	}
	sub := &Dataset{dict: d.dict, horizon: d.horizon, attrs: make([]*History, n)}
	copy(sub.attrs, d.attrs[:n])
	for i, h := range sub.attrs {
		h.id = AttrID(i)
	}
	return sub
}

// Stats summarizes the dataset the way the paper reports its corpus
// (Section 5.1): attribute count, mean changes per attribute, mean lifespan
// and mean version cardinality.
type Stats struct {
	Attributes      int
	MeanChanges     float64
	MeanLifespanDay float64
	MeanCardinality float64
	DistinctValues  int
}

// ComputeStats scans the dataset and returns its summary statistics.
func (d *Dataset) ComputeStats() Stats {
	s := Stats{Attributes: len(d.attrs), DistinctValues: d.dict.Len()}
	if len(d.attrs) == 0 {
		return s
	}
	var changes, lifespan, card, versions int
	for _, h := range d.attrs {
		changes += h.NumChanges()
		lifespan += h.Lifespan().Len()
		for i := 0; i < h.NumVersions(); i++ {
			card += h.Version(i).Values.Len()
		}
		versions += h.NumVersions()
	}
	s.MeanChanges = float64(changes) / float64(len(d.attrs))
	s.MeanLifespanDay = float64(lifespan) / float64(len(d.attrs))
	s.MeanCardinality = float64(card) / float64(versions)
	return s
}

// Builder accumulates observations for one attribute and produces a
// History. Observations may arrive unordered; consecutive identical value
// sets collapse into one version, mirroring the paper's model where a
// version persists until the next change.
type Builder struct {
	meta Meta
	obs  []Version
}

// NewBuilder returns a builder for an attribute with the given provenance.
func NewBuilder(meta Meta) *Builder { return &Builder{meta: meta} }

// Observe records that the attribute held exactly vals from timestamp t on.
func (b *Builder) Observe(t timeline.Time, vals values.Set) {
	b.obs = append(b.obs, Version{Start: t, Values: vals})
}

// Len returns the number of raw observations recorded so far.
func (b *Builder) Len() int { return len(b.obs) }

// Build sorts observations, collapses no-op updates and constructs the
// History with the given observation end. Multiple observations at the
// same timestamp keep the last one recorded (preprocessing resolves
// intra-day conflicts before the builder sees them, so this is a
// last-writer-wins safety net).
func (b *Builder) Build(end timeline.Time) (*History, error) {
	if len(b.obs) == 0 {
		return nil, fmt.Errorf("history %s: no observations", b.meta)
	}
	sort.SliceStable(b.obs, func(i, j int) bool { return b.obs[i].Start < b.obs[j].Start })
	versions := make([]Version, 0, len(b.obs))
	for _, o := range b.obs {
		if n := len(versions); n > 0 {
			if versions[n-1].Start == o.Start {
				versions[n-1] = o // last writer wins within a timestamp
				if n > 1 && versions[n-2].Values.Equal(o.Values) {
					versions = versions[:n-1] // became a no-op update
				}
				continue
			}
			if versions[n-1].Values.Equal(o.Values) {
				continue // no-op update
			}
		}
		versions = append(versions, o)
	}
	return New(b.meta, versions, end)
}
