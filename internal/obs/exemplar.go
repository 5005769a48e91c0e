package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// Exemplar is one concrete observation pinned to a histogram bucket: the
// observed value plus the labels (typically a query id) that let an
// operator jump from a latency spike on a chart to the exact event in
// the /debug/events ring that caused it.
type Exemplar struct {
	Value  float64
	Labels []Label
	Time   time.Time
}

// ObserveExemplar records one value like Observe and additionally stores
// (value, labels, now) as the bucket's exemplar, replacing any previous
// one. The exemplar store is one atomic pointer swap; labels must not be
// mutated after the call.
func (h *Histogram) ObserveExemplar(v float64, labels ...Label) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	if h.ex != nil {
		h.ex[i].Store(&Exemplar{Value: v, Labels: labels, Time: time.Now()})
	}
}

// Exemplars returns the current exemplar per bucket (+Inf last); entries
// are nil where no exemplar has been recorded.
func (h *Histogram) Exemplars() []*Exemplar {
	if h.ex == nil {
		return nil
	}
	out := make([]*Exemplar, len(h.ex))
	for i := range h.ex {
		out[i] = h.ex[i].Load()
	}
	return out
}

// WriteOpenMetrics renders every registered metric in the OpenMetrics
// 1.0 text format: counter families gain the `_total` sample suffix,
// histogram bucket lines carry their exemplar (`# {labels} value ts`)
// when one is recorded, and the output terminates with `# EOF`. The
// Prometheus 0.0.4 rendering (WritePrometheus) remains the default;
// scrapers negotiate this format via the Accept header.
func (r *Registry) WriteOpenMetrics(w io.Writer) error { return r.render(w, true) }

func bucketExemplar(ex []*Exemplar, i int) *Exemplar {
	if i < len(ex) {
		return ex[i]
	}
	return nil
}

// writeBucketSample writes one `name_bucket{...} v` line, appending the
// OpenMetrics exemplar clause when one exists.
func writeBucketSample(w *bufio.Writer, name, labels string, v float64, e *Exemplar) {
	w.WriteString(name)
	w.WriteString("_bucket")
	if labels != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(formatFloat(v))
	if e != nil {
		w.WriteString(" # {")
		w.WriteString(renderLabels(e.Labels))
		w.WriteString("} ")
		w.WriteString(formatFloat(e.Value))
		if !e.Time.IsZero() {
			fmt.Fprintf(w, " %.3f", float64(e.Time.UnixNano())/1e9)
		}
	}
	w.WriteByte('\n')
}
