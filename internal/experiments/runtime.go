package experiments

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/index"
	"tind/internal/many"
	"tind/internal/stats"
	"tind/internal/timeline"
)

// Fig7 reproduces Figure 7: query-time distributions for tIND search,
// reverse tIND search and the k-MANY baseline over growing numbers of
// indexed attributes. The k-MANY column reports OOM when its
// all-candidates violation tracking exceeds a memory budget scaled to the
// experiment, reproducing the paper's failure at 1.2 M attributes.
func Fig7(cfg Config, w io.Writer) error {
	cfg.fillDefaults()
	header(w, "fig7", "query runtimes vs |D| (ms)")
	c, err := corpus(cfg)
	if err != nil {
		return err
	}
	full := c.Dataset
	p := core.DefaultDays(full.Horizon())
	sizes := []int{full.Len() / 8, full.Len() / 4, full.Len() / 2, full.Len()}

	tbl := newTable(w, "|D|", "method", "min", "p25", "median", "p75", "max", "mean", "<100ms")
	for i, n := range sizes {
		ds := full.Subset(n)
		queries := sampleQueries(ds, cfg.Queries, cfg.Seed+int64(i))

		idx, err := index.Build(ds, searchOptions(ds.Horizon(), cfg.Seed))
		if err != nil {
			return err
		}
		s, _, err := measureSearch(idx, queries, p)
		if err != nil {
			return err
		}
		emitBox(tbl, n, "search", s)

		ridx, err := index.Build(ds, reverseOptions(ds.Horizon(), cfg.Seed))
		if err != nil {
			return err
		}
		rs, _, err := measureReverse(ridx, queries, p)
		if err != nil {
			return err
		}
		emitBox(tbl, n, "search (r)", rs)

		km, err := many.NewKMany(ds, 16, p.Delta, bloom.Params{M: 4096, K: 2}, cfg.Seed)
		if err != nil {
			return err
		}
		// The budget admits sizes below ~90% of the full corpus; the
		// largest size runs out of memory — mirroring the paper's k-MANY
		// failure at 1.2 of 1.3 million attributes.
		km.MemoryBudget = kmanyMemoryBudget(full.Len())
		ks := &stats.Sample{}
		oom := false
		for _, q := range queries {
			res, err := km.Search(q, p)
			if errors.Is(err, many.ErrOutOfMemory) {
				oom = true
				break
			}
			if err != nil {
				return err
			}
			ks.AddDuration(res.Elapsed)
		}
		if oom {
			tbl.row(n, "k-MANY", "OOM", "OOM", "OOM", "OOM", "OOM", "OOM", "-")
		} else {
			emitBox(tbl, n, "k-MANY", ks)
		}
	}
	tbl.flush()
	return nil
}

// kmanyMemoryBudget returns a budget that admits the baseline below the
// largest corpus size but rejects it at full size: the footprint of its
// 16 m=4096 matrices plus per-attribute violation tracking, at 90% of the
// full attribute count.
func kmanyMemoryBudget(fullAttrs int) int64 {
	const perAttr = 16*4096/64*8 + 8 // matrix columns + tracking float64
	return int64(0.9 * perAttr * float64(fullAttrs))
}

func searchOptions(n timeline.Time, seed int64) index.Options {
	opt := index.DefaultOptions(n)
	opt.Seed = seed
	return opt
}

func reverseOptions(n timeline.Time, seed int64) index.Options {
	opt := index.DefaultReverseOptions(n)
	opt.Seed = seed
	return opt
}

func emitBox(tbl *table, n int, method string, s *stats.Sample) {
	b := s.Box()
	cells := append([]interface{}{n, method}, boxCells(b)...)
	cells = append(cells, fmt.Sprintf("%.1f%%", 100*s.ShareBelow(100)))
	tbl.row(cells...)
}

// epsGrid and deltaGrid are the parameter grids of Figures 8 and 9.
func epsGrid() []float64         { return []float64{0, 1, 3, 7, 15, 39} }
func deltaGrid() []timeline.Time { return []timeline.Time{0, 1, 7, 31, 365} }

// Fig9 reproduces Figure 9: mean tIND search runtime for varying ε and δ.
func Fig9(cfg Config, w io.Writer) error {
	cfg.fillDefaults()
	header(w, "fig9", "mean query runtime (ms) for varying ε and δ")
	c, err := corpus(cfg)
	if err != nil {
		return err
	}
	ds := c.Dataset
	queries := sampleQueries(ds, cfg.Queries, cfg.Seed)
	// Index built for the most generous parameters of the grid so every
	// query stays within the index bounds.
	opt := searchOptions(ds.Horizon(), cfg.Seed)
	opt.Params = core.Params{Epsilon: 39, Delta: 365, Weight: timeline.Uniform(ds.Horizon())}
	idx, err := index.Build(ds, opt)
	if err != nil {
		return err
	}
	tbl := newTable(w, "ε (days)", "δ (days)", "mean ms", "<100ms", "<1s")
	for _, e := range epsGrid() {
		for _, d := range deltaGrid() {
			p := core.Params{Epsilon: e, Delta: d, Weight: timeline.Uniform(ds.Horizon())}
			s, _, err := measureSearch(idx, queries, p)
			if err != nil {
				return err
			}
			tbl.row(e, int(d), s.Mean(),
				fmt.Sprintf("%.1f%%", 100*s.ShareBelow(100)),
				fmt.Sprintf("%.1f%%", 100*s.ShareBelow(1000)))
		}
	}
	tbl.flush()
	return nil
}

// Fig10 reproduces Figure 10: indices built for larger ε values than the
// queries use.
func Fig10(cfg Config, w io.Writer) error {
	cfg.fillDefaults()
	header(w, "fig10", "index ε vs fixed query ε=3d (ms)")
	c, err := corpus(cfg)
	if err != nil {
		return err
	}
	ds := c.Dataset
	queries := sampleQueries(ds, cfg.Queries, cfg.Seed)
	qp := core.DefaultDays(ds.Horizon())
	tbl := newTable(w, "index ε", "min", "p25", "median", "p75", "max", "mean")
	for _, e := range []float64{3, 7, 15, 39} {
		opt := searchOptions(ds.Horizon(), cfg.Seed)
		opt.Params = core.Params{Epsilon: e, Delta: qp.Delta, Weight: timeline.Uniform(ds.Horizon())}
		idx, err := index.Build(ds, opt)
		if err != nil {
			return err
		}
		s, _, err := measureSearch(idx, queries, qp)
		if err != nil {
			return err
		}
		tbl.row(append([]interface{}{e}, boxCells(s.Box())...)...)
	}
	tbl.flush()
	return nil
}

// Fig11 reproduces Figure 11: indices built for larger δ values than the
// queries use.
func Fig11(cfg Config, w io.Writer) error {
	cfg.fillDefaults()
	header(w, "fig11", "index δ vs fixed query δ=7d (ms)")
	c, err := corpus(cfg)
	if err != nil {
		return err
	}
	ds := c.Dataset
	queries := sampleQueries(ds, cfg.Queries, cfg.Seed)
	qp := core.DefaultDays(ds.Horizon())
	tbl := newTable(w, "index δ", "min", "p25", "median", "p75", "max", "mean", "<100ms")
	for _, d := range []timeline.Time{7, 14, 28, 112, 365} {
		opt := searchOptions(ds.Horizon(), cfg.Seed)
		opt.Params = core.Params{Epsilon: qp.Epsilon, Delta: d, Weight: timeline.Uniform(ds.Horizon())}
		idx, err := index.Build(ds, opt)
		if err != nil {
			return err
		}
		s, _, err := measureSearch(idx, queries, qp)
		if err != nil {
			return err
		}
		cells := append([]interface{}{int(d)}, boxCells(s.Box())...)
		cells = append(cells, fmt.Sprintf("%.1f%%", 100*s.ShareBelow(100)))
		tbl.row(cells...)
	}
	tbl.flush()
	return nil
}

// Fig12 reproduces Figure 12: the effect of the Bloom filter size m on
// search (larger is better) and reverse search (larger is worse). m is
// the width of M_T and M_R and the widest a slice matrix may keep: each
// slice folds down to its fill (DESIGN §5), so the "slice m" column
// prints the widths actually built, and above them m moves M_T and M_R
// alone.
func Fig12(cfg Config, w io.Writer) error {
	cfg.fillDefaults()
	header(w, "fig12", "Bloom filter size m (M_T, M_R; the slices' upper bound) vs runtime (ms)")
	c, err := corpus(cfg)
	if err != nil {
		return err
	}
	ds := c.Dataset
	queries := sampleQueries(ds, cfg.Queries, cfg.Seed)
	p := core.DefaultDays(ds.Horizon())
	tbl := newTable(w, "m", "slice m", "direction", "min", "median", "max", "mean", "<1s")
	for _, m := range []int{512, 1024, 2048, 4096, 8192} {
		opt := searchOptions(ds.Horizon(), cfg.Seed)
		opt.Bloom = bloom.Params{M: m, K: 2}
		opt.Reverse = true
		idx, err := index.Build(ds, opt)
		if err != nil {
			return err
		}
		s, _, err := measureSearch(idx, queries, p)
		if err != nil {
			return err
		}
		rs, _, err := measureReverse(idx, queries, p)
		if err != nil {
			return err
		}
		sliceBits := idx.Stats().SliceBits
		lo, hi := slices.Min(sliceBits), slices.Max(sliceBits)
		sliceM := strconv.Itoa(lo)
		if hi != lo {
			sliceM += "-" + strconv.Itoa(hi)
		}
		for _, e := range []struct {
			dir string
			s   *stats.Sample
		}{{"search", s}, {"reverse", rs}} {
			b := e.s.Box()
			tbl.row(m, sliceM, e.dir, b.Min, b.Median, b.Max, b.Mean,
				fmt.Sprintf("%.1f%%", 100*e.s.ShareBelow(1000)))
		}
	}
	tbl.flush()
	return nil
}

// Fig13 reproduces Figure 13: number of time slices k and the slice
// selection strategy, for tIND search. Three query sets and three seeds
// per configuration, as in the paper.
func Fig13(cfg Config, w io.Writer) error {
	return sliceSweep(cfg, w, "fig13", false)
}

// Fig14 reproduces Figure 14: the same sweep for reverse search, where
// more than two slices hurt.
func Fig14(cfg Config, w io.Writer) error {
	return sliceSweep(cfg, w, "fig14", true)
}

func sliceSweep(cfg Config, w io.Writer, id string, reverse bool) error {
	cfg.fillDefaults()
	dir := "search"
	if reverse {
		dir = "reverse search"
	}
	header(w, id, fmt.Sprintf("time slices k × strategy — %s (mean ms per run)", dir))
	c, err := corpus(cfg)
	if err != nil {
		return err
	}
	ds := c.Dataset
	p := core.DefaultDays(ds.Horizon())
	tbl := newTable(w, "k", "strategy", "min", "median", "max", "mean of run-means")
	for _, k := range []int{1, 2, 4, 8, 16} {
		for _, strat := range []index.SliceStrategy{index.Random, index.WeightedRandom} {
			runMeans := &stats.Sample{}
			for seed := int64(0); seed < 3; seed++ {
				for qset := int64(0); qset < 3; qset++ {
					opt := index.Options{
						Bloom:    bloom.Params{M: 1024, K: 2},
						Slices:   k,
						Strategy: strat,
						Params:   p,
						Seed:     cfg.Seed + seed,
						Reverse:  reverse,
					}
					if reverse {
						opt.ReverseSlices = k
					}
					idx, err := index.Build(ds, opt)
					if err != nil {
						return err
					}
					queries := sampleQueries(ds, cfg.Queries/3+1, cfg.Seed+100*qset)
					var s *stats.Sample
					if reverse {
						s, _, err = measureReverse(idx, queries, p)
					} else {
						s, _, err = measureSearch(idx, queries, p)
					}
					if err != nil {
						return err
					}
					runMeans.Add(s.Mean())
				}
			}
			b := runMeans.Box()
			tbl.row(k, strat.String(), b.Min, b.Median, b.Max, b.Mean)
		}
	}
	tbl.flush()
	return nil
}
