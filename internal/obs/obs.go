// Package obs is the dependency-free observability core of the tind
// serving stack: atomic counters, gauges and fixed-bucket histograms,
// registered in a Registry that renders the Prometheus text exposition
// format (version 0.0.4), plus lightweight per-query trace spans.
//
// The package deliberately implements only what the index and the
// serving binaries need — monotone counters, last-value gauges,
// cumulative-bucket histograms and static label sets — so that the hot
// query path pays one atomic add per observation and nothing links
// against an external metrics client.
//
// Metrics are identified by name plus a fixed label set. Registration is
// idempotent: asking the registry for an already-registered (name,
// labels) pair returns the existing metric, so instrumented packages can
// register from init functions or lazily without coordination.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key="value" pair attached to a metric.
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative n is a programming error and is ignored.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value metric.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the current value.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets. Bounds are
// the inclusive upper edges; an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1, non-cumulative per bucket
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds, the Prometheus base unit.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations: the sum of the buckets,
// so no reader can see a count that disagrees with them.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// BucketCounts returns the cumulative count at each bound, ending with
// the +Inf bucket (== Count).
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed values
// from the cumulative buckets, interpolating linearly within the bucket
// the rank falls into — the same estimate Prometheus's
// histogram_quantile computes server-side. Empty leading buckets are
// skipped, so q=0 and q=1 clamp to the edges of the observed range
// rather than interpolating across buckets no sample ever landed in.
// Ranks landing in the +Inf bucket are clamped to the highest finite
// bound. Returns NaN for an empty histogram or q outside [0, 1].
func (h *Histogram) Quantile(q float64) float64 {
	bounds := h.bounds
	cum := h.BucketCounts()
	count := cum[len(cum)-1]
	cum = cum[:len(bounds)]
	if count == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	if len(bounds) == 0 {
		return math.NaN() // all mass in +Inf: no finite estimate exists
	}
	// Locate the first nonempty finite bucket; buckets before it hold no
	// samples and must not absorb low ranks.
	first := -1
	var prev int64
	for i, c := range cum {
		if c > prev {
			first = i
			break
		}
		prev = c
	}
	if first < 0 {
		// All mass sits in the +Inf bucket: clamp like Prometheus.
		return bounds[len(bounds)-1]
	}
	rank := q * float64(count)
	for i := first; i < len(cum); i++ {
		c := cum[i]
		if float64(c) < rank {
			continue
		}
		lower := 0.0
		var below int64
		if i > 0 {
			lower = bounds[i-1]
			below = cum[i-1]
		}
		in := float64(c - below)
		if in == 0 {
			// Rank lands exactly on the cumulative count of an interior
			// empty bucket; the value is the upper edge of the last
			// nonempty bucket below it.
			return lower
		}
		return lower + (bounds[i]-lower)*(rank-float64(below))/in
	}
	// Rank falls into the +Inf bucket: the honest answer is "beyond the
	// highest bound"; clamp to it like Prometheus does.
	return bounds[len(bounds)-1]
}

// LatencyBuckets spans 100µs to 10s in a 1-2.5-5 progression — the
// default for query-phase and request latencies.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// CountBuckets spans 1 to 1M in decades with a 1-5 split — the default
// for candidate-set sizes.
var CountBuckets = []float64{
	1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 50000, 100000, 500000, 1e6,
}

// ExpBuckets returns n bounds growing geometrically from start by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic(fmt.Sprintf("obs: invalid ExpBuckets(%g, %g, %d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metricKind discriminates the exposition TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// family groups all metrics sharing one name (differing in labels).
type family struct {
	name    string
	help    string
	kind    metricKind
	order   []string // label-set keys in registration order
	metrics map[string]interface{}
}

// Registry holds registered metrics and renders the text exposition.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	names []string // family names in registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry the instrumented packages
// register into; cmd/tindserve serves it at /metrics.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// renderLabels serializes a label set as `k1="v1",k2="v2"`, keys in the
// given order. Values are escaped per the exposition format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// The exposition's escapes: label values escape backslash, quote and
// newline; HELP text escapes backslash and newline. Built once — every
// registration lookup renders its labels through labelEscaper.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// lookup returns (creating on first use) the metric of the given family
// and label set, verifying kind consistency.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label, make func() interface{}) interface{} {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, metrics: map[string]interface{}{}}
		r.fams[name] = f
		r.names = append(r.names, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	m, ok := f.metrics[key]
	if !ok {
		m = make()
		f.metrics[key] = m
		f.order = append(f.order, key)
	}
	return m
}

// Counter registers (or returns) the counter with the given name and
// label set.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, kindCounter, labels, func() interface{} { return &Counter{} }).(*Counter)
}

// Gauge registers (or returns) the gauge with the given name and label set.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, kindGauge, labels, func() interface{} { return &Gauge{} }).(*Gauge)
}

// Histogram registers (or returns) the histogram with the given name,
// label set and bucket upper bounds (which must be strictly increasing;
// +Inf is implicit). Re-registration ignores the bounds of later calls.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing at %d", name, i))
		}
	}
	return r.lookup(name, help, kindHistogram, labels, func() interface{} {
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Int64, len(bounds)+1)
		return h
	}).(*Histogram)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format, families in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	// Snapshot the family list; metric values are read atomically below.
	names := append([]string(nil), r.names...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.fams[n]
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, helpEscaper.Replace(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		r.mu.Lock()
		keys := append([]string(nil), f.order...)
		metrics := make([]interface{}, len(keys))
		for i, k := range keys {
			metrics[i] = f.metrics[k]
		}
		r.mu.Unlock()
		for i, key := range keys {
			switch m := metrics[i].(type) {
			case *Counter:
				writeSample(bw, f.name, key, float64(m.Value()))
			case *Gauge:
				writeSample(bw, f.name, key, m.Value())
			case *Histogram:
				// One read feeds every bucket line and _count: a separate
				// Count() under concurrent observation could see more than
				// the +Inf line did, which the format forbids.
				cum := m.BucketCounts()
				for bi, c := range cum {
					le := "+Inf"
					if bi < len(m.bounds) {
						le = formatFloat(m.bounds[bi])
					}
					writeSample(bw, f.name+"_bucket", joinLabels(key, `le="`+le+`"`), float64(c))
				}
				writeSample(bw, f.name+"_sum", key, m.Sum())
				writeSample(bw, f.name+"_count", key, float64(cum[len(cum)-1]))
			}
		}
	}
	return bw.Flush()
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func writeSample(w *bufio.Writer, name, labels string, v float64) {
	w.WriteString(name)
	if labels != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(formatFloat(v))
	w.WriteByte('\n')
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
