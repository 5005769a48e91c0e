package experiments

import (
	"context"
	"testing"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/eval"
	"tind/internal/index"
	"tind/internal/many"
	"tind/internal/timeline"
)

// These tests pin the paper's qualitative experiment shapes to the
// synthetic corpus at CI scale, so regressions in the generator, index or
// evaluation surface as test failures rather than silently wrong
// experiment reports.

func shapeConfig() Config {
	return Config{Attrs: 600, Horizon: 800, Queries: 120, Seed: 3}
}

// Fig. 8's shape: the number of discovered tINDs grows monotonically with
// both ε and δ.
func TestShapeFig8Monotone(t *testing.T) {
	cfg := shapeConfig()
	c, err := corpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	opt := searchOptions(ds.Horizon(), cfg.Seed)
	opt.Params = core.Params{Epsilon: 39, Delta: 365, Weight: timeline.Uniform(ds.Horizon())}
	idx, err := index.Build(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	queries := sampleQueries(ds, cfg.Queries, cfg.Seed)
	count := func(eps float64, delta timeline.Time) int {
		p := core.Params{Epsilon: eps, Delta: delta, Weight: timeline.Uniform(ds.Horizon())}
		_, results, err := measureSearch(idx, queries, p)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	prev := -1
	for _, eps := range []float64{0, 3, 15} {
		if got := count(eps, 7); got < prev {
			t.Fatalf("tIND count must grow with ε: %d < %d at ε=%g", got, prev, eps)
		} else {
			prev = got
		}
	}
	prev = -1
	for _, delta := range []timeline.Time{0, 7, 31} {
		if got := count(3, delta); got < prev {
			t.Fatalf("tIND count must grow with δ: %d < %d at δ=%d", got, prev, delta)
		} else {
			prev = got
		}
	}
}

// §5.2's shape: most static INDs are invalid tINDs, and a sizable share
// of tINDs is invisible statically.
func TestShapeAllPairsOverlap(t *testing.T) {
	cfg := shapeConfig()
	c, err := corpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	p := core.DefaultDays(ds.Horizon())
	idx, err := index.Build(ds, searchOptions(ds.Horizon(), cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := idx.AllPairsContext(context.Background(), p, 4)
	if err != nil {
		t.Fatal(err)
	}
	static, err := many.NewStatic(ds, ds.Horizon()-1, bloom.Params{M: 2048, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	staticPairs := static.AllPairs()
	if len(staticPairs) <= len(pairs) {
		t.Fatalf("static INDs (%d) must outnumber tINDs (%d)", len(staticPairs), len(pairs))
	}
	tindSet := make(map[index.Pair]bool, len(pairs))
	for _, pr := range pairs {
		tindSet[pr] = true
	}
	invalid := 0
	for _, sp := range staticPairs {
		if !tindSet[index.Pair{LHS: sp.LHS, RHS: sp.RHS}] {
			invalid++
		}
	}
	if share := float64(invalid) / float64(len(staticPairs)); share < 0.5 || share > 0.95 {
		t.Fatalf("share of static INDs invalid as tINDs = %.2f, expected the paper's 'most' (0.5–0.95)", share)
	}

	// Precision ordering under the oracle.
	tindGenuine, staticGenuine := 0, 0
	for _, pr := range pairs {
		if c.Truth.Genuine(pr.LHS, pr.RHS) {
			tindGenuine++
		}
	}
	for _, sp := range staticPairs {
		if c.Truth.Genuine(sp.LHS, sp.RHS) {
			staticGenuine++
		}
	}
	tindPrec := float64(tindGenuine) / float64(len(pairs))
	staticPrec := float64(staticGenuine) / float64(len(staticPairs))
	if tindPrec <= staticPrec {
		t.Fatalf("tIND precision (%.3f) must exceed static precision (%.3f)", tindPrec, staticPrec)
	}
	if staticPrec > 0.35 {
		t.Fatalf("static precision %.3f implausibly high for the paper's shape", staticPrec)
	}
}

// Fig. 15's shape: strict ≪ relaxed recall; each relaxation's frontier
// dominates its predecessor's at the high-recall end.
func TestShapeFig15Ordering(t *testing.T) {
	cfg := shapeConfig()
	c, err := corpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	labeled, err := eval.SampleLabeled(ds, c.Truth, ds.Horizon()-1, 60, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	base := eval.StaticBaseline(labeled)
	points := eval.GridSearch(ds, labeled, eval.Grid{
		EpsilonDays: []float64{0, 1, 3, 15},
		Deltas:      []timeline.Time{0, 7, 31},
		Alphas:      []float64{0.999},
	})
	strictPt := eval.EvaluateParams(ds, labeled, "strict", core.Strict(ds.Horizon()))
	if strictPt.Recall > 0.5 {
		t.Fatalf("strict recall %.2f too high; dirt must break strict tINDs", strictPt.Recall)
	}
	if strictPt.Precision <= base.Precision {
		t.Fatalf("strict precision %.2f must beat static %.2f", strictPt.Precision, base.Precision)
	}
	edBest, ok1 := eval.MaxRecallAtPrecision(points, "eps-delta", base.Precision*2)
	eBest, ok2 := eval.MaxRecallAtPrecision(points, "eps", base.Precision*2)
	if !ok1 {
		t.Fatal("(ε,δ) must reach twice the static precision somewhere on the grid")
	}
	if ok2 && eBest.Recall > edBest.Recall {
		t.Fatalf("(ε,δ) (recall %.2f) must dominate ε-only (recall %.2f) at matched precision",
			edBest.Recall, eBest.Recall)
	}
}

// Fig. 14's shape: reverse search does not get cheaper with many slices —
// past k=2 the slices probed cost more than the validations they spare.
// Asserted on the work a query does (slice probes plus exact checks, both
// deterministic under the seed), not on wall-clock means, which flaked.
func TestShapeFig14ReverseSlices(t *testing.T) {
	cfg := shapeConfig()
	c, err := corpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	p := core.DefaultDays(ds.Horizon())
	queries := sampleQueries(ds, cfg.Queries, cfg.Seed)
	work := func(k int) (probes, checks int) {
		opt := index.Options{
			Bloom: bloom.Params{M: 512, K: 2}, Slices: k, Params: p,
			Reverse: true, ReverseSlices: k, Seed: cfg.Seed,
			Strategy: index.WeightedRandom,
		}
		idx, err := index.Build(ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			res, err := idx.Query(context.Background(), q, index.QueryOptions{Mode: index.ModeReverse, Params: p})
			if err != nil {
				t.Fatal(err)
			}
			probes += res.Stats.SlicesUsed
			checks += res.Stats.Validated
		}
		return probes, checks
	}
	p2, c2 := work(2)
	p16, c16 := work(16)
	t.Logf("k=2: %d probes %d checks; k=16: %d probes %d checks", p2, c2, p16, c16)
	if p16+c16 < p2+c2 {
		t.Fatalf("reverse search with k=16 does less work (%d probes + %d checks) than k=2 (%d + %d); Fig. 14 shape lost",
			p16, c16, p2, c2)
	}
}
