// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -exp all
//	experiments -exp fig7,fig15 -attrs 20000 -queries 3000
//
// Every experiment prints the rows/series of the corresponding paper
// table or figure; EXPERIMENTS.md maps the output to the paper's numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tind/internal/experiments"
	"tind/internal/obs"
	"tind/internal/timeline"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		attrs   = flag.Int("attrs", 2000, "number of attributes in the synthetic corpus")
		horizon = flag.Int("horizon", 1500, "observation period in days")
		queries = flag.Int("queries", 300, "queries per runtime measurement")
		seed    = flag.Int64("seed", 1, "random seed")
		workers = flag.Int("workers", 0, "all-pairs workers (0 = all cores)")
		list    = flag.Bool("list", false, "list available experiments and exit")
		metrics = flag.Bool("metrics", false, "dump the collected metrics to stderr on exit (Prometheus text format)")
	)
	flag.Parse()
	if *metrics {
		// Final stats dump: the build and per-phase histograms accumulated
		// across every experiment run in this process. The experiments
		// build many indexes and serve none, so the index state gauges
		// (tind_index_bytes, fill ratios) are not published.
		defer func() {
			fmt.Fprintln(os.Stderr, "--- metrics ---")
			if err := obs.Default().WritePrometheus(os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: writing metrics:", err)
			}
		}()
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := experiments.Config{
		Attrs:   *attrs,
		Horizon: timeline.Time(*horizon),
		Queries: *queries,
		Seed:    *seed,
		Workers: *workers,
	}

	var ids []string
	if *exp == "all" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}

	for _, id := range ids {
		e, ok := experiments.Get(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		if err := e.Run(cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
