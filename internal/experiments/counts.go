package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/datagen"
	"tind/internal/index"
	"tind/internal/many"
	"tind/internal/timeline"
)

// Fig8 reproduces Figure 8: the number of tINDs found for the query
// workload as ε and δ grow.
func Fig8(cfg Config, w io.Writer) error {
	cfg.fillDefaults()
	header(w, "fig8", "tINDs found for the query workload vs ε and δ")
	c, err := corpus(cfg)
	if err != nil {
		return err
	}
	ds := c.Dataset
	queries := sampleQueries(ds, cfg.Queries, cfg.Seed)
	opt := searchOptions(ds.Horizon(), cfg.Seed)
	opt.Params = core.Params{Epsilon: 39, Delta: 365, Weight: timeline.Uniform(ds.Horizon())}
	idx, err := index.Build(ds, opt)
	if err != nil {
		return err
	}
	tbl := newTable(w, "ε (days)", "δ (days)", "tINDs found")
	for _, e := range epsGrid() {
		for _, d := range deltaGrid() {
			p := core.Params{Epsilon: e, Delta: d, Weight: timeline.Uniform(ds.Horizon())}
			_, results, err := measureSearch(idx, queries, p)
			if err != nil {
				return err
			}
			tbl.row(e, int(d), results)
		}
	}
	tbl.flush()
	return nil
}

// AllPairs reproduces the §5.2 all-pairs experiment: the complete tIND set
// versus static IND discovery on the latest snapshot, including the
// overlap statistics the paper reports (77% of static INDs are invalid
// tINDs; a third of tINDs are invisible statically).
func AllPairs(cfg Config, w io.Writer) error {
	cfg.fillDefaults()
	header(w, "allpairs", "all-pairs tIND discovery vs static INDs")
	c, err := corpus(cfg)
	if err != nil {
		return err
	}
	ds := c.Dataset
	p := core.DefaultDays(ds.Horizon())

	start := time.Now()
	idx, err := index.Build(ds, searchOptions(ds.Horizon(), cfg.Seed))
	if err != nil {
		return err
	}
	buildTime := time.Since(start)
	pairs, err := idx.AllPairsContext(context.Background(), p, cfg.Workers)
	if err != nil {
		return err
	}
	total := time.Since(start)

	static, err := many.NewStatic(ds, ds.Horizon()-1, bloom.Params{M: 4096, K: 2})
	if err != nil {
		return err
	}
	staticPairs := static.AllPairs()

	tindSet := make(map[index.Pair]bool, len(pairs))
	for _, pr := range pairs {
		tindSet[pr] = true
	}
	staticSet := make(map[index.Pair]bool, len(staticPairs))
	var staticAlsoTIND int
	for _, sp := range staticPairs {
		key := index.Pair{LHS: sp.LHS, RHS: sp.RHS}
		staticSet[key] = true
		if tindSet[key] {
			staticAlsoTIND++
		}
	}
	var tindNotStatic int
	for pr := range tindSet {
		if !staticSet[pr] {
			tindNotStatic++
		}
	}
	genuineT := countGenuine(c, pairs)
	genuineS := 0
	for _, sp := range staticPairs {
		if c.Truth.Genuine(sp.LHS, sp.RHS) {
			genuineS++
		}
	}

	fmt.Fprintf(w, "attributes: %d, horizon: %d days\n", ds.Len(), ds.Horizon())
	fmt.Fprintf(w, "index build: %v, total all-pairs wall time: %v\n", buildTime.Round(time.Millisecond), total.Round(time.Millisecond))
	fmt.Fprintf(w, "tINDs (ε=3d, δ=7d): %d  (genuine: %d, precision %.1f%%)\n",
		len(pairs), genuineT, pct(genuineT, len(pairs)))
	fmt.Fprintf(w, "static INDs (latest snapshot): %d  (genuine: %d, precision %.1f%%)\n",
		len(staticPairs), genuineS, pct(genuineS, len(staticPairs)))
	fmt.Fprintf(w, "static INDs that are invalid tINDs: %d (%.1f%%)\n",
		len(staticPairs)-staticAlsoTIND, pct(len(staticPairs)-staticAlsoTIND, len(staticPairs)))
	fmt.Fprintf(w, "tINDs not discovered statically: %d (%.1f%% of tINDs)\n",
		tindNotStatic, pct(tindNotStatic, len(pairs)))
	return nil
}

func countGenuine(c *datagen.Corpus, pairs []index.Pair) int {
	n := 0
	for _, pr := range pairs {
		if c.Truth.Genuine(pr.LHS, pr.RHS) {
			n++
		}
	}
	return n
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
