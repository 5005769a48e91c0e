// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) on synthetic corpora. Each experiment prints the
// same rows/series the paper reports; EXPERIMENTS.md records the measured
// outcomes next to the paper's numbers.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"text/tabwriter"

	"tind/internal/core"
	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/stats"
	"tind/internal/timeline"
)

// Config scales the experiment workloads. The defaults finish in minutes
// on a laptop; raise Attrs/Queries to approach the paper's scale.
type Config struct {
	Attrs   int           // corpus size; default 2000
	Horizon timeline.Time // observation days; default 1500
	Queries int           // queries per runtime measurement; default 300
	Seed    int64
	Workers int // parallel workers for all-pairs; 0 = GOMAXPROCS
}

func (c *Config) fillDefaults() {
	if c.Attrs == 0 {
		c.Attrs = 2000
	}
	if c.Horizon == 0 {
		c.Horizon = 1500
	}
	if c.Queries == 0 {
		c.Queries = 300
	}
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config, w io.Writer) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig7", "Query runtimes vs number of indexed attributes (search, reverse, k-MANY)", Fig7},
		{"fig8", "Number of tINDs found vs ε and δ", Fig8},
		{"fig9", "Mean query runtime vs ε and δ", Fig9},
		{"fig10", "Runtime impact of indexing for larger ε than queried", Fig10},
		{"fig11", "Runtime impact of indexing for larger δ than queried", Fig11},
		{"fig12", "Bloom filter size m vs runtime (search and reverse)", Fig12},
		{"fig13", "Number of time slices k and slice choice — tIND search", Fig13},
		{"fig14", "Number of time slices k and slice choice — reverse search", Fig14},
		{"fig15", "Precision/recall of tIND variants for genuine-IND discovery", Fig15},
		{"table2", "TP share of static INDs bucketed by change counts", Table2},
		{"allpairs", "All-pairs tIND discovery vs static IND discovery", AllPairs},
		{"ablation", "Pruning-stage ablation: M_T vs time slices", Ablation},
	}
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// corpusCache shares generated corpora between experiments in one process.
var corpusCache sync.Map

// corpus returns the (cached) corpus for a configuration.
func corpus(cfg Config) (*datagen.Corpus, error) {
	cfg.fillDefaults()
	key := fmt.Sprintf("%d/%d/%d", cfg.Attrs, cfg.Horizon, cfg.Seed)
	if v, ok := corpusCache.Load(key); ok {
		return v.(*datagen.Corpus), nil
	}
	c, err := datagen.Generate(datagen.Config{
		Seed:       cfg.Seed + 1,
		Attributes: cfg.Attrs,
		Horizon:    cfg.Horizon,
	})
	if err != nil {
		return nil, err
	}
	corpusCache.Store(key, c)
	return c, nil
}

// sampleQueries draws a random query workload from the dataset.
func sampleQueries(ds *history.Dataset, n int, seed int64) []*history.History {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*history.History, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ds.Attr(history.AttrID(rng.Intn(ds.Len()))))
	}
	return out
}

// measureSearch runs the query workload against the index and collects
// per-query latencies in milliseconds plus the total result count.
func measureSearch(idx *index.Index, queries []*history.History, p core.Params) (*stats.Sample, int, error) {
	return measureQueries(idx, queries, index.QueryOptions{Mode: index.ModeForward, Params: p})
}

// measureReverse mirrors measureSearch for reverse queries.
func measureReverse(idx *index.Index, queries []*history.History, p core.Params) (*stats.Sample, int, error) {
	return measureQueries(idx, queries, index.QueryOptions{Mode: index.ModeReverse, Params: p})
}

func measureQueries(idx *index.Index, queries []*history.History, o index.QueryOptions) (*stats.Sample, int, error) {
	s := &stats.Sample{}
	results := 0
	for _, q := range queries {
		res, err := idx.Query(context.Background(), q, o)
		if err != nil {
			return nil, 0, err
		}
		s.AddDuration(res.Stats.Elapsed)
		results += len(res.IDs)
	}
	return s, results, nil
}

// table renders aligned columns.
type table struct {
	w   *tabwriter.Writer
	out io.Writer
}

func newTable(w io.Writer, headers ...string) *table {
	t := &table{w: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0), out: w}
	fmt.Fprintln(t.w, strings.Join(headers, "\t"))
	sep := make([]string, len(headers))
	for i, h := range headers {
		sep[i] = strings.Repeat("-", len([]rune(h)))
	}
	fmt.Fprintln(t.w, strings.Join(sep, "\t"))
	return t
}

func (t *table) row(cells ...interface{}) {
	ss := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			ss[i] = fmt.Sprintf("%.2f", v)
		default:
			ss[i] = fmt.Sprint(c)
		}
	}
	fmt.Fprintln(t.w, strings.Join(ss, "\t"))
}

func (t *table) flush() { t.w.Flush() }

// header prints an experiment banner.
func header(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n=== %s: %s ===\n", id, title)
}

// boxRow formats a latency box as table cells.
func boxCells(b stats.Box) []interface{} {
	return []interface{}{b.Min, b.P25, b.Median, b.P75, b.Max, b.Mean}
}
