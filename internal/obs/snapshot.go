package obs

import "strings"

// Metric is the captured state of one registered instrument at snapshot
// time. Counters store their count in Value; gauges store their level;
// histograms store their observation sum in Value, the observation count
// in Count and the cumulative per-bound counts in Buckets (finite bounds
// only — the implicit +Inf bucket always equals Count, so it is not
// serialized).
type Metric struct {
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"` // rendered `k1="v1",k2="v2"` form
	Kind   string `json:"kind"`             // counter | gauge | histogram
	// Value is the counter count, the gauge level, or the histogram sum.
	Value float64 `json:"value"`
	// Count and Buckets are set for histograms only.
	Count   int64    `json:"count,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one cumulative histogram bucket with a finite upper bound.
type Bucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// Snapshot is a point-in-time capture of every metric in a Registry.
// Snapshots are plain data: they marshal to JSON (tindbench embeds one
// per benchmark scenario) and two of them subtract into a delta view via
// Diff, which is what tests and benchmarks use to assert or report what
// a specific stretch of work did to the metrics. Quantile estimates are
// asked of the live Histogram, not of a capture.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot captures the current value of every registered metric,
// families in registration order. Values are read atomically per metric;
// the snapshot is not a cross-metric transaction (writers running during
// the capture may land in some metrics and not others), which matches
// what a /metrics scrape would see.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	type famSnap struct {
		f       *family
		keys    []string
		metrics []interface{}
	}
	fams := make([]famSnap, 0, len(names))
	for _, n := range names {
		f := r.fams[n]
		fs := famSnap{f: f, keys: append([]string(nil), f.order...)}
		for _, k := range fs.keys {
			fs.metrics = append(fs.metrics, f.metrics[k])
		}
		fams = append(fams, fs)
	}
	r.mu.Unlock()

	s := &Snapshot{}
	for _, fs := range fams {
		for i, key := range fs.keys {
			p := Metric{Name: fs.f.name, Labels: key, Kind: string(fs.f.kind)}
			switch m := fs.metrics[i].(type) {
			case *Counter:
				p.Value = float64(m.Value())
			case *Gauge:
				p.Value = m.Value()
			case *Histogram:
				p.Value = m.Sum()
				// One read feeds Count and every bucket: a second one could
				// see observations the first did not.
				cum := m.BucketCounts()
				p.Count = cum[len(cum)-1]
				for bi, bound := range m.bounds {
					p.Buckets = append(p.Buckets, Bucket{LE: bound, Count: cum[bi]})
				}
			}
			s.Metrics = append(s.Metrics, p)
		}
	}
	return s
}

// Get returns the captured metric with the given name and label set.
func (s *Snapshot) Get(name string, labels ...Label) (Metric, bool) {
	return s.lookup(name, renderLabels(labels))
}

// lookup finds a metric by name and rendered label key.
func (s *Snapshot) lookup(name, labels string) (Metric, bool) {
	for _, m := range s.Metrics {
		if m.Name == name && m.Labels == labels {
			return m, true
		}
	}
	return Metric{}, false
}

// Value returns the captured value (counter count, gauge level,
// histogram sum) of the metric, or 0 when it was not captured.
func (s *Snapshot) Value(name string, labels ...Label) float64 {
	m, ok := s.Get(name, labels...)
	if !ok {
		return 0
	}
	return m.Value
}

// Count returns the captured observation count of a histogram, or 0 when
// it was not captured.
func (s *Snapshot) Count(name string, labels ...Label) int64 {
	m, ok := s.Get(name, labels...)
	if !ok {
		return 0
	}
	return m.Count
}

// FilterPrefix returns a snapshot holding only metrics whose name starts
// with one of the given prefixes.
func (s *Snapshot) FilterPrefix(prefixes ...string) *Snapshot {
	out := &Snapshot{}
	for _, m := range s.Metrics {
		for _, p := range prefixes {
			if strings.HasPrefix(m.Name, p) {
				out.Metrics = append(out.Metrics, m)
				break
			}
		}
	}
	return out
}

// Diff returns the change from prev to s, metric by metric:
//
//   - counters and histograms subtract (value, count and buckets), so
//     the result reads as "what happened between the snapshots"; metrics
//     whose delta is entirely zero are dropped,
//   - gauges are levels, not rates, so the diff keeps the later value
//     and drops gauges that did not change,
//   - metrics absent from prev (registered in between) diff against
//     zero: they appear with their full value, or not at all if still
//     untouched.
//
// A nil prev diffs everything against zero.
func (s *Snapshot) Diff(prev *Snapshot) *Snapshot {
	out := &Snapshot{}
	for _, cur := range s.Metrics {
		var old Metric
		if prev != nil {
			old, _ = prev.lookup(cur.Name, cur.Labels)
		}
		switch cur.Kind {
		case string(kindCounter):
			d := cur
			d.Value -= old.Value
			if d.Value != 0 {
				out.Metrics = append(out.Metrics, d)
			}
		case string(kindGauge):
			if cur.Value != old.Value {
				out.Metrics = append(out.Metrics, cur)
			}
		case string(kindHistogram):
			d := cur
			d.Value -= old.Value
			d.Count -= old.Count
			if len(old.Buckets) == len(cur.Buckets) {
				d.Buckets = make([]Bucket, len(cur.Buckets))
				for i := range cur.Buckets {
					d.Buckets[i] = Bucket{LE: cur.Buckets[i].LE, Count: cur.Buckets[i].Count - old.Buckets[i].Count}
				}
			}
			if d.Count != 0 || d.Value != 0 {
				out.Metrics = append(out.Metrics, d)
			}
		default:
			out.Metrics = append(out.Metrics, cur)
		}
	}
	return out
}
