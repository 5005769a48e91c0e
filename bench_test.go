// Benchmarks: one per table/figure of the paper's evaluation, measuring
// the operation each figure studies. The experiment binaries
// (cmd/experiments) print the full tables; these benches track the
// underlying costs (per-query latency, index build, validation) so
// regressions surface in `go test -bench`.
package tind_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"tind"
)

// benchCorpus is shared across benchmarks (generation dominates otherwise).
var (
	benchOnce   sync.Once
	benchCorpus *tind.Corpus
)

func corpus(b *testing.B) *tind.Corpus {
	b.Helper()
	benchOnce.Do(func() {
		c, err := tind.GenerateCorpus(tind.CorpusConfig{
			Seed: 42, Attributes: 1000, Horizon: 800,
		})
		if err != nil {
			panic(err)
		}
		benchCorpus = c
	})
	return benchCorpus
}

func buildIndex(b *testing.B, ds *tind.Dataset, opt tind.IndexOptions) *tind.Index {
	b.Helper()
	idx, err := tind.BuildIndex(ds, opt)
	if err != nil {
		b.Fatal(err)
	}
	return idx
}

func queryLoop(b *testing.B, idx *tind.Index, ds *tind.Dataset, p tind.Params, reverse bool) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := ds.Attr(tind.AttrID(i % ds.Len()))
		var err error
		if reverse {
			_, err = idx.Reverse(q, p)
		} else {
			_, err = idx.Search(q, p)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Search measures tIND search latency at growing |D|
// (Figure 7, "Search" series).
func BenchmarkFig7Search(b *testing.B) {
	c := corpus(b)
	for _, frac := range []int{4, 2, 1} {
		n := c.Dataset.Len() / frac
		b.Run(fmt.Sprintf("attrs=%d", n), func(b *testing.B) {
			ds := c.Dataset.Subset(n)
			idx := buildIndex(b, ds, tind.DefaultOptions(ds.Horizon()))
			queryLoop(b, idx, ds, tind.DefaultParams(ds.Horizon()), false)
		})
	}
}

// BenchmarkFig7Reverse measures reverse search latency (Figure 7,
// "Search (r)" series).
func BenchmarkFig7Reverse(b *testing.B) {
	c := corpus(b)
	ds := c.Dataset
	idx := buildIndex(b, ds, tind.DefaultReverseOptions(ds.Horizon()))
	queryLoop(b, idx, ds, tind.DefaultParams(ds.Horizon()), true)
}

// BenchmarkFig7KMany measures the k-MANY baseline per query (Figure 7,
// "k-MANY" series) — expect an order of magnitude above Search.
func BenchmarkFig7KMany(b *testing.B) {
	c := corpus(b)
	ds := c.Dataset
	km, err := tind.NewKMany(ds, 16, 7, tind.BloomParams{M: 4096, K: 2}, 1)
	if err != nil {
		b.Fatal(err)
	}
	p := tind.DefaultParams(ds.Horizon())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := km.Search(ds.Attr(tind.AttrID(i%ds.Len())), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8TINDCounting measures search across the ε×δ grid corners
// (Figure 8 counts tINDs at these settings).
func BenchmarkFig8TINDCounting(b *testing.B) {
	c := corpus(b)
	ds := c.Dataset
	opt := tind.DefaultOptions(ds.Horizon())
	opt.Params = tind.Params{Epsilon: 39, Delta: 365, Weight: tind.Uniform(ds.Horizon())}
	idx := buildIndex(b, ds, opt)
	for _, s := range []struct {
		eps   float64
		delta tind.Time
	}{{0, 0}, {3, 7}, {39, 365}} {
		b.Run(fmt.Sprintf("eps=%g/delta=%d", s.eps, s.delta), func(b *testing.B) {
			p := tind.Params{Epsilon: s.eps, Delta: s.delta, Weight: tind.Uniform(ds.Horizon())}
			queryLoop(b, idx, ds, p, false)
		})
	}
}

// BenchmarkFig9ParameterSweep measures the runtime impact of generous
// query parameters (Figure 9).
func BenchmarkFig9ParameterSweep(b *testing.B) {
	c := corpus(b)
	ds := c.Dataset
	opt := tind.DefaultOptions(ds.Horizon())
	opt.Params = tind.Params{Epsilon: 39, Delta: 365, Weight: tind.Uniform(ds.Horizon())}
	idx := buildIndex(b, ds, opt)
	for _, eps := range []float64{1, 15, 39} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			p := tind.Params{Epsilon: eps, Delta: 7, Weight: tind.Uniform(ds.Horizon())}
			queryLoop(b, idx, ds, p, false)
		})
	}
}

// BenchmarkFig10IndexEpsilonDeviation: index built for ε=39d, queries use
// ε=3d (Figure 10).
func BenchmarkFig10IndexEpsilonDeviation(b *testing.B) {
	c := corpus(b)
	ds := c.Dataset
	opt := tind.DefaultOptions(ds.Horizon())
	opt.Params = tind.Params{Epsilon: 39, Delta: 7, Weight: tind.Uniform(ds.Horizon())}
	idx := buildIndex(b, ds, opt)
	queryLoop(b, idx, ds, tind.DefaultParams(ds.Horizon()), false)
}

// BenchmarkFig11IndexDeltaDeviation: index built for δ=112d, queries use
// δ=7d (Figure 11).
func BenchmarkFig11IndexDeltaDeviation(b *testing.B) {
	c := corpus(b)
	ds := c.Dataset
	opt := tind.DefaultOptions(ds.Horizon())
	opt.Params = tind.Params{Epsilon: 3, Delta: 112, Weight: tind.Uniform(ds.Horizon())}
	idx := buildIndex(b, ds, opt)
	queryLoop(b, idx, ds, tind.DefaultParams(ds.Horizon()), false)
}

// BenchmarkFig12BloomSize sweeps the Bloom filter size m for both
// directions (Figure 12).
func BenchmarkFig12BloomSize(b *testing.B) {
	c := corpus(b)
	ds := c.Dataset
	for _, m := range []int{512, 2048, 8192} {
		opt := tind.DefaultOptions(ds.Horizon())
		opt.Bloom = tind.BloomParams{M: m, K: 2}
		opt.Reverse = true
		idx := buildIndex(b, ds, opt)
		b.Run(fmt.Sprintf("m=%d/search", m), func(b *testing.B) {
			queryLoop(b, idx, ds, tind.DefaultParams(ds.Horizon()), false)
		})
		b.Run(fmt.Sprintf("m=%d/reverse", m), func(b *testing.B) {
			queryLoop(b, idx, ds, tind.DefaultParams(ds.Horizon()), true)
		})
	}
}

// BenchmarkFig13Slices sweeps the number of time slices k and the slice
// strategy for search (Figure 13).
func BenchmarkFig13Slices(b *testing.B) {
	c := corpus(b)
	ds := c.Dataset
	for _, k := range []int{2, 8, 16} {
		for _, strat := range []tind.SliceStrategy{tind.RandomSlices, tind.WeightedRandomSlices} {
			opt := tind.DefaultOptions(ds.Horizon())
			opt.Slices = k
			opt.Strategy = strat
			idx := buildIndex(b, ds, opt)
			b.Run(fmt.Sprintf("k=%d/%v", k, strat), func(b *testing.B) {
				queryLoop(b, idx, ds, tind.DefaultParams(ds.Horizon()), false)
			})
		}
	}
}

// BenchmarkFig14SlicesReverse sweeps k for reverse search (Figure 14),
// where more slices hurt.
func BenchmarkFig14SlicesReverse(b *testing.B) {
	c := corpus(b)
	ds := c.Dataset
	for _, k := range []int{2, 8, 16} {
		opt := tind.DefaultReverseOptions(ds.Horizon())
		opt.Slices = k
		opt.ReverseSlices = k
		idx := buildIndex(b, ds, opt)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			queryLoop(b, idx, ds, tind.DefaultParams(ds.Horizon()), true)
		})
	}
}

// BenchmarkFig15Evaluation measures one grid-search point of the
// genuineness evaluation (Figure 15): validating the labelled set under
// one parametrization.
func BenchmarkFig15Evaluation(b *testing.B) {
	c := corpus(b)
	ds := c.Dataset
	labeled, err := tind.SampleLabeled(ds, c.Truth, ds.Horizon()-1, 50, 1)
	if err != nil {
		b.Fatal(err)
	}
	p := tind.DefaultParams(ds.Horizon())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lp := range labeled {
			tind.Holds(ds.Attr(lp.LHS), ds.Attr(lp.RHS), p)
		}
	}
}

// BenchmarkTable2Labeling measures assembling the bucket-sampled labelled
// IND set (Table 2's substrate): static all-pairs discovery + bucketing.
func BenchmarkTable2Labeling(b *testing.B) {
	c := corpus(b)
	ds := c.Dataset
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tind.SampleLabeled(ds, c.Truth, ds.Horizon()-1, 100, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllPairs measures complete tIND discovery (the §5.2 "less than
// three hours for 1.3M attributes" experiment, scaled down).
func BenchmarkAllPairs(b *testing.B) {
	c := corpus(b)
	ds := c.Dataset.Subset(400)
	idx := buildIndex(b, ds, tind.DefaultOptions(ds.Horizon()))
	p := tind.DefaultParams(ds.Horizon())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.AllPairsContext(context.Background(), p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexBuild measures index construction (part of the §5.2
// wall-clock budget).
func BenchmarkIndexBuild(b *testing.B) {
	c := corpus(b)
	ds := c.Dataset
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tind.BuildIndex(ds, tind.DefaultOptions(ds.Horizon())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidation measures Algorithm 2 on a single genuine pair.
func BenchmarkValidation(b *testing.B) {
	c := corpus(b)
	ds := c.Dataset
	p := tind.DefaultParams(ds.Horizon())
	// Find one genuine pair.
	var q, a *tind.History
	for lhs := tind.AttrID(0); int(lhs) < ds.Len() && q == nil; lhs++ {
		for rhs := tind.AttrID(0); int(rhs) < ds.Len(); rhs++ {
			if c.Truth.Genuine(lhs, rhs) {
				q, a = ds.Attr(lhs), ds.Attr(rhs)
				break
			}
		}
	}
	if q == nil {
		b.Fatal("no genuine pair")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tind.Holds(q, a, p)
	}
}
