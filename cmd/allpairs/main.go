// Command allpairs discovers the complete set of temporal inclusion
// dependencies in a corpus and compares it with static IND discovery on
// the latest snapshot (the §5.2 experiment at configurable scale).
//
// Usage:
//
//	allpairs -attrs 5000 -eps 3 -delta 7
//	allpairs -attrs 1000 -print | head      # list discovered tINDs
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/datagen"
	"tind/internal/index"
	"tind/internal/many"
	"tind/internal/obs"
	"tind/internal/shard"
	"tind/internal/timeline"
)

// discoverer is the slice of the query contract this command needs;
// index.Index, shard.ShardedIndex and router.Router all satisfy it.
type discoverer interface {
	AllPairsContext(ctx context.Context, p core.Params, workers int) ([]index.Pair, error)
	Stats() index.BuildStats
}

func main() {
	var (
		attrs   = flag.Int("attrs", 2000, "number of attributes")
		horizon = flag.Int("horizon", 1500, "observation period in days")
		seed    = flag.Int64("seed", 1, "random seed")
		eps     = flag.Float64("eps", 3, "ε in days (uniform weighting)")
		delta   = flag.Int("delta", 7, "δ in days")
		workers = flag.Int("workers", 0, "query workers (0 = all cores)")
		shards  = flag.Int("shards", 1, "discover through a sharded scatter-gather index with this many shards (1 = monolithic)")
		doPrint = flag.Bool("print", false, "print every discovered tIND")
		timeout = flag.Duration("timeout", 0, "abort discovery after this long (0 = no limit)")
		metrics = flag.Bool("metrics", false, "dump the collected metrics to stderr on exit (Prometheus text format)")
	)
	flag.Parse()
	if *metrics {
		defer dumpMetrics()
	}

	// The n² discovery loop can run for hours on a big corpus; Ctrl-C or
	// the -timeout budget cancels it mid-validation instead of leaving an
	// unkillable CPU burner.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	c, err := datagen.Generate(datagen.Config{
		Seed: *seed, Attributes: *attrs, Horizon: timeline.Time(*horizon),
	})
	if err != nil {
		fatal(err)
	}
	ds := c.Dataset
	p := core.Params{Epsilon: *eps, Delta: timeline.Time(*delta), Weight: timeline.Uniform(ds.Horizon())}

	opt := index.DefaultOptions(ds.Horizon())
	opt.Params = p
	opt.Seed = *seed
	start := time.Now()
	var idx discoverer
	if *shards > 1 {
		idx, err = shard.Build(ds, shard.Options{
			Shards: *shards, Seed: *seed, Index: shard.PartitionOptions(opt, *shards),
		})
	} else {
		idx, err = index.Build(ds, opt)
	}
	if err != nil {
		fatal(err)
	}
	index.PublishStats(idx.Stats())
	engine := "index"
	if *shards > 1 {
		engine = fmt.Sprintf("%d-shard index", *shards)
	}
	fmt.Fprintf(os.Stderr, "%s built over %d attributes in %v (%.1f MB)\n",
		engine, ds.Len(), time.Since(start).Round(time.Millisecond),
		float64(idx.Stats().MemoryBytes)/(1<<20))

	pairs, err := idx.AllPairsContext(ctx, p, *workers)
	if err != nil {
		if errors.Is(err, index.ErrCanceled) || errors.Is(err, index.ErrDeadlineExceeded) {
			fatal(fmt.Errorf("discovery aborted: %w", err))
		}
		fatal(err)
	}
	total := time.Since(start)

	static, err := many.NewStatic(ds, ds.Horizon()-1, bloom.Params{M: 4096, K: 2})
	if err != nil {
		fatal(err)
	}
	staticPairs := static.AllPairs()

	genuine := 0
	for _, pr := range pairs {
		if c.Truth.Genuine(pr.LHS, pr.RHS) {
			genuine++
		}
	}
	fmt.Printf("tINDs (ε=%gd, δ=%dd): %d  (genuine %d, precision %.1f%%)\n",
		*eps, *delta, len(pairs), genuine, 100*float64(genuine)/float64(max(1, len(pairs))))
	fmt.Printf("static INDs:          %d\n", len(staticPairs))
	fmt.Printf("total wall time:      %v\n", total.Round(time.Millisecond))

	if *doPrint {
		w := bufio.NewWriter(os.Stdout)
		defer w.Flush()
		for _, pr := range pairs {
			fmt.Fprintf(w, "%s ⊆ %s\n", ds.Attr(pr.LHS).Meta(), ds.Attr(pr.RHS).Meta())
		}
	}
}

// dumpMetrics writes the final state of every instrument — index build
// times, the state gauges of the index discovery ran on (Bloom fill
// ratios, bytes; published after the build), query-phase histograms of
// the discovery run — so a batch job leaves the same numbers a scraped
// server would.
func dumpMetrics() {
	fmt.Fprintln(os.Stderr, "--- metrics ---")
	if err := obs.Default().WritePrometheus(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "allpairs: writing metrics:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "allpairs:", err)
	os.Exit(1)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
