package obs

import (
	"math"
	"strconv"
	"strings"
)

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

// Quantile estimates the q-quantile of a histogram metric from its
// captured buckets, with the same interpolation as Histogram.Quantile.
// It returns NaN for non-histograms, empty histograms and q outside
// [0, 1]. Applied to a Diff result, it estimates the quantile of only
// the observations made between the two snapshots.
func (m Metric) Quantile(q float64) float64 {
	if m.Kind != string(kindHistogram) {
		return math.NaN()
	}
	bounds := make([]float64, len(m.Buckets))
	cum := make([]int64, len(m.Buckets))
	for i, b := range m.Buckets {
		bounds[i] = b.LE
		cum[i] = b.Count
	}
	return quantileFromBuckets(bounds, cum, m.Count, q)
}

// Snapshot is a point-in-time capture of every metric in a Registry.
// Snapshots are plain data: they marshal to JSON (tindbench embeds one
// per benchmark scenario) and two of them subtract into a delta view via
// Diff, which is what tests and benchmarks use to assert or report what
// a specific stretch of work did to the metrics.
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
	key := renderLabels(labels)
	for _, m := range s.Metrics {
		if m.Name == name && m.Labels == key {
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

// Filter returns a snapshot holding only the metrics keep accepts.
func (s *Snapshot) Filter(keep func(Metric) bool) *Snapshot {
	out := &Snapshot{}
	for _, m := range s.Metrics {
		if keep(m) {
			out.Metrics = append(out.Metrics, m)
		}
	}
	return out
}

// FilterPrefix returns a snapshot holding only metrics whose name starts
// with one of the given prefixes.
func (s *Snapshot) FilterPrefix(prefixes ...string) *Snapshot {
	return s.Filter(func(m Metric) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(m.Name, p) {
				return true
			}
		}
		return false
	})
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
			old, _ = prevLookup(prev, cur.Name, cur.Labels)
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

// CountAbove estimates how many of a histogram metric's observations
// exceeded threshold, interpolating linearly within the bucket the
// threshold falls into (the inverse of Quantile's estimate). Thresholds
// at or beyond the highest finite bound return only the +Inf mass.
// Returns 0 for non-histograms and empty histograms. Applied to a Diff
// result it counts only the observations between the two snapshots,
// which is what the SLO engine's windowed bad-event counters use.
func (m Metric) CountAbove(threshold float64) float64 {
	if m.Kind != string(kindHistogram) || m.Count == 0 {
		return 0
	}
	total := float64(m.Count)
	if len(m.Buckets) == 0 {
		return total
	}
	var below int64
	lower := 0.0
	for _, b := range m.Buckets {
		if threshold <= b.LE {
			in := float64(b.Count - below)
			width := b.LE - lower
			var aboveIn float64
			if in > 0 && width > 0 && threshold > lower {
				aboveIn = in * (b.LE - threshold) / width
			} else if threshold <= lower {
				aboveIn = in
			}
			return aboveIn + (total - float64(b.Count))
		}
		below = b.Count
		lower = b.LE
	}
	return total - float64(below) // threshold beyond the last bound: +Inf mass
}

// Label returns the value of one key in the metric's rendered label set,
// or "" when absent or unparseable.
func (m Metric) Label(key string) string {
	labels, err := ParseLabels(m.Labels)
	if err != nil {
		return ""
	}
	for _, l := range labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// ParseLabels parses a rendered `k1="v1",k2="v2"` label set back into
// labels, undoing the exposition-format escaping (\\, \", \n). It is
// the inverse of renderLabels and is what tests use to round-trip label
// values through the exposition.
func ParseLabels(s string) ([]Label, error) {
	if s == "" {
		return nil, nil
	}
	var out []Label
	i := 0
	for i < len(s) {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return nil, errMalformedLabels(s, i)
		}
		key := s[i : i+eq]
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return nil, errMalformedLabels(s, i)
		}
		i++
		var b strings.Builder
		closed := false
		for i < len(s) {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(c)
					b.WriteByte(s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			b.WriteByte(c)
			i++
		}
		if !closed {
			return nil, errMalformedLabels(s, i)
		}
		out = append(out, Label{Key: key, Value: b.String()})
		if i < len(s) {
			if s[i] != ',' {
				return nil, errMalformedLabels(s, i)
			}
			i++
		}
	}
	return out, nil
}

type labelParseError struct {
	input string
	pos   int
}

func (e *labelParseError) Error() string {
	return "obs: malformed label set " + strconv.Quote(e.input) + " at offset " + strconv.Itoa(e.pos)
}

func errMalformedLabels(s string, pos int) error { return &labelParseError{input: s, pos: pos} }

// prevLookup finds a metric by name and pre-rendered label key.
func prevLookup(s *Snapshot, name, labels string) (Metric, bool) {
	for _, m := range s.Metrics {
		if m.Name == name && m.Labels == labels {
			return m, true
		}
	}
	return Metric{}, false
}
