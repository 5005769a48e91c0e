// Command tindsearch is an interactive tIND explorer: it builds the index
// over a corpus (synthetic, or a wikitext revision stream produced by
// cmd/datagen) and answers search and reverse-search queries from a small
// REPL — the user-facing exploration scenario of the paper's introduction.
//
// Usage:
//
//	tindsearch -attrs 2000                       # synthetic corpus
//	tindsearch -revisions revisions.jsonl        # real extraction pipeline
//
// REPL commands:
//
//	find <attr-id|page-substring>    attributes the query is contained in
//	rfind <attr-id|page-substring>   attributes contained in the query
//	topk <k> <attr-id|page-substring> best-contained attributes by violation
//	why <lhs> <rhs>                  violated intervals of lhs ⊆ rhs
//	show <attr-id>                   attribute metadata and versions
//	params <eps> <delta>             change the relaxation
//	quit
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"tind/internal/core"
	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/obs"
	"tind/internal/persist"
	"tind/internal/preprocess"
	"tind/internal/timeline"
	"tind/internal/wiki"
)

func main() {
	var (
		attrs     = flag.Int("attrs", 2000, "synthetic corpus size (ignored with -revisions)")
		horizon   = flag.Int("horizon", 1500, "observation period in days")
		seed      = flag.Int64("seed", 1, "random seed")
		revisions = flag.String("revisions", "", "load a wikitext revision stream (JSONL) instead of generating")
		corpusF   = flag.String("corpus", "", "load a binary dataset (.tind, from cmd/wikiparse or cmd/datagen)")
		eps       = flag.Float64("eps", 3, "ε in days")
		delta     = flag.Int("delta", 7, "δ in days")
		metrics   = flag.Bool("metrics", false, "dump the collected metrics to stderr on exit (Prometheus text format)")
	)
	flag.Parse()
	if *metrics {
		defer dumpMetrics()
	}

	ds, err := loadDataset(*corpusF, *revisions, *attrs, *horizon, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "dataset: %d attributes over %d days\n", ds.Len(), ds.Horizon())

	opt := index.DefaultOptions(ds.Horizon())
	opt.Params = core.Params{Epsilon: *eps, Delta: timeline.Time(*delta), Weight: timeline.Uniform(ds.Horizon())}
	opt.Reverse = true
	opt.Seed = *seed
	start := time.Now()
	idx, err := index.Build(ds, opt)
	if err != nil {
		fatal(err)
	}
	st := idx.Stats()
	index.PublishStats(st)
	fmt.Fprintf(os.Stderr, "index built in %v (%.1f MB, %d slices)\n",
		time.Since(start).Round(time.Millisecond),
		float64(st.MemoryBytes)/(1<<20), st.Slices)

	repl(ds, idx, opt.Params)
}

func loadDataset(corpusFile, revFile string, attrs, horizon int, seed int64) (*history.Dataset, error) {
	if corpusFile != "" {
		f, err := os.Open(corpusFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return persist.Read(f)
	}
	if revFile == "" {
		c, err := datagen.Generate(datagen.Config{
			Seed: seed, Attributes: attrs, Horizon: timeline.Time(horizon),
		})
		if err != nil {
			return nil, err
		}
		return c.Dataset, nil
	}
	f, err := os.Open(revFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ex := wiki.NewExtractor()
	dec := json.NewDecoder(bufio.NewReader(f))
	var first, last wiki.Revision
	n := 0
	for {
		var r wiki.Revision
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if n == 0 {
			first = r
		}
		last = r
		n++
		if err := ex.Process(r); err != nil {
			return nil, err
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("no revisions in %s", revFile)
	}
	startDay := first.Timestamp.Truncate(24 * time.Hour)
	ds, rep, err := preprocess.Run(ex.Records(), preprocess.Config{
		Start: startDay,
		End:   last.Timestamp.Add(24 * time.Hour).Truncate(24 * time.Hour),
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "extracted %d revisions; preprocessing: %+v\n", n, rep)
	return ds, nil
}

func repl(ds *history.Dataset, idx *index.Index, p core.Params) {
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Print("> ")
			continue
		}
		switch fields[0] {
		case "quit", "exit", "q":
			return
		case "params":
			if len(fields) != 3 {
				fmt.Println("usage: params <eps-days> <delta-days>")
				break
			}
			e, err1 := strconv.ParseFloat(fields[1], 64)
			d, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				fmt.Println("usage: params <eps-days> <delta-days>")
				break
			}
			p = core.Params{Epsilon: e, Delta: timeline.Time(d), Weight: timeline.Uniform(ds.Horizon())}
			fmt.Printf("now using %v\n", p)
		case "show":
			if h := resolve(ds, strings.Join(fields[1:], " ")); h != nil {
				meta := h.Meta()
				fmt.Printf("#%d %s — %d versions, observed [%d,%d)\n",
					h.ID(), meta, h.NumVersions(), h.ObservedFrom(), h.ObservedUntil())
				for i := 0; i < h.NumVersions() && i < 5; i++ {
					v := h.Version(i)
					fmt.Printf("  day %d: %v\n", v.Start, ds.Dict().Strings(v.Values))
				}
				if h.NumVersions() > 5 {
					fmt.Printf("  … %d more versions\n", h.NumVersions()-5)
				}
			}
		case "why":
			if len(fields) != 3 {
				fmt.Println("usage: why <lhs-attr> <rhs-attr>")
				break
			}
			lhs := resolve(ds, fields[1])
			rhs := resolve(ds, fields[2])
			if lhs == nil || rhs == nil {
				break
			}
			vios := core.Explain(lhs, rhs, p)
			var total float64
			for _, v := range vios {
				fmt.Printf("  violated %v (weight %.1f, e.g. missing %q)\n",
					v.Interval, v.Weight, ds.Dict().String(v.Missing))
				total += v.Weight
			}
			verdict := "holds"
			if total > p.Epsilon {
				verdict = "fails"
			}
			fmt.Printf("total violation %.1f vs ε=%g → tIND %s\n", total, p.Epsilon, verdict)
		case "topk":
			if len(fields) < 3 {
				fmt.Println("usage: topk <k> <attr>")
				break
			}
			k, err := strconv.Atoi(fields[1])
			if err != nil || k <= 0 {
				fmt.Println("usage: topk <k> <attr>")
				break
			}
			h := resolve(ds, strings.Join(fields[2:], " "))
			if h == nil {
				break
			}
			res, err := idx.Query(context.Background(), h, index.QueryOptions{
				Mode:   index.ModeTopK,
				K:      k,
				Params: core.Params{Delta: p.Delta, Weight: p.Weight},
			})
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			for _, r := range res.Ranked {
				fmt.Printf("  #%d %s (violation %.1f)\n", r.ID, ds.Attr(r.ID).Meta(), r.Violation)
			}
		case "find", "rfind":
			h := resolve(ds, strings.Join(fields[1:], " "))
			if h == nil {
				break
			}
			mode := index.ModeForward
			if fields[0] == "rfind" {
				mode = index.ModeReverse
			}
			res, err := idx.Query(context.Background(), h, index.QueryOptions{Mode: mode, Params: p})
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			for _, id := range res.IDs {
				fmt.Printf("  #%d %s\n", id, ds.Attr(id).Meta())
			}
			fmt.Printf("%d results in %v (candidates: %d → %d → validated %d)\n",
				len(res.IDs), res.Stats.Elapsed.Round(time.Microsecond),
				res.Stats.InitialCandidates, res.Stats.AfterSlices, res.Stats.Validated)
		default:
			fmt.Println("commands: find | rfind | topk | why | show | params | quit")
		}
		fmt.Print("> ")
	}
}

// resolve finds an attribute by numeric id or by page-name substring.
func resolve(ds *history.Dataset, arg string) *history.History {
	if arg == "" {
		fmt.Println("missing attribute (id or page substring)")
		return nil
	}
	if id, err := strconv.Atoi(arg); err == nil {
		if id < 0 || id >= ds.Len() {
			fmt.Printf("attribute id out of range [0,%d)\n", ds.Len())
			return nil
		}
		return ds.Attr(history.AttrID(id))
	}
	needle := strings.ToLower(arg)
	for _, h := range ds.Attrs() {
		if strings.Contains(strings.ToLower(h.Meta().Page), needle) {
			return h
		}
	}
	fmt.Printf("no attribute matches %q\n", arg)
	return nil
}

// dumpMetrics writes the final state of every instrument — index build
// times, the state gauges of the session's index (Bloom fill ratios,
// bytes; published after the build), the phase histograms of its queries
// — so an exploration session leaves the same numbers a scraped server
// would. Mirrors the -metrics flag of cmd/allpairs and cmd/experiments.
func dumpMetrics() {
	fmt.Fprintln(os.Stderr, "--- metrics ---")
	if err := obs.Default().WritePrometheus(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tindsearch: writing metrics:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tindsearch:", err)
	os.Exit(1)
}
