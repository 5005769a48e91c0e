package index

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/timeline"
)

// mixedBatch builds a batch exercising every mode, the ByID path, and
// the matrix-ineligible fallbacks (query ε above the index ε disables
// M_R, query δ above the index δ disables slice pruning).
func mixedBatch(ds *history.Dataset, p core.Params) []BatchQuery {
	var batch []BatchQuery
	n := ds.Len()
	for i := 0; i < n; i++ {
		id := history.AttrID(i)
		switch i % 5 {
		case 0:
			batch = append(batch, BatchQuery{Query: ds.Attr(id), Options: QueryOptions{Mode: ModeForward, Params: p}})
		case 1:
			batch = append(batch, BatchQuery{ByID: true, ID: id, Options: QueryOptions{Mode: ModeReverse, Params: p}})
		case 2:
			batch = append(batch, BatchQuery{Query: ds.Attr(id), Options: QueryOptions{
				Mode: ModeTopK, Params: core.Params{Delta: p.Delta, Weight: p.Weight}, K: 1 + i%4,
			}})
		case 3:
			over := p
			over.Epsilon *= 3 // beyond the index ε: reverse must fall back to the full vector
			batch = append(batch, BatchQuery{ByID: true, ID: id, Options: QueryOptions{Mode: ModeReverse, Params: over}})
		default:
			wide := p
			wide.Delta = p.Delta + 7 // beyond the index δ: slice pruning must disengage
			batch = append(batch, BatchQuery{Query: ds.Attr(id), Options: QueryOptions{Mode: ModeForward, Params: wide}})
		}
	}
	return batch
}

// checkBatchMatchesSequential asserts every batch result is semantically
// identical to issuing the same sub-query on its own (runSingles).
func checkBatchMatchesSequential(t *testing.T, x *Index, batch []BatchQuery, got []Result) {
	t.Helper()
	wants, err := runSingles(context.Background(), x, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, bq := range batch {
		want := wants[i]
		if !idsEqual(got[i].IDs, want.IDs) {
			t.Fatalf("entry %d (mode %v): batch IDs %v, sequential %v", i, bq.Options.Mode, got[i].IDs, want.IDs)
		}
		if len(got[i].Ranked) != len(want.Ranked) {
			t.Fatalf("entry %d: batch ranked %d results, sequential %d", i, len(got[i].Ranked), len(want.Ranked))
		}
		for j := range want.Ranked {
			if got[i].Ranked[j] != want.Ranked[j] {
				t.Fatalf("entry %d rank %d: batch %+v, sequential %+v", i, j, got[i].Ranked[j], want.Ranked[j])
			}
		}
		if golden(got[i].Stats) != golden(want.Stats) {
			t.Fatalf("entry %d (mode %v): batch funnel %+v, sequential %+v",
				i, bq.Options.Mode, golden(got[i].Stats), golden(want.Stats))
		}
		if got[i].Stats.Timings.Total <= 0 || got[i].Stats.Timings.Total != got[i].Stats.Elapsed {
			t.Fatalf("entry %d: Timings contract violated: %+v", i, got[i].Stats.Timings)
		}
	}
}

// TestQueryBatchMatchesSequentialQuery is the monolith differential:
// QueryBatch ≡ per-query Query across modes, the ByID path, fallback
// parameters and both worker configurations — run twice so the second
// pass executes entirely on recycled pool memory.
func TestQueryBatchMatchesSequentialQuery(t *testing.T) {
	ds, x := queryTestIndex(t, 21, 40)
	p := core.DefaultDays(ds.Horizon())
	batch := mixedBatch(ds, p)
	for pass := 0; pass < 2; pass++ {
		for _, workers := range []int{0, 1} {
			got, err := x.QueryBatch(context.Background(), batch, BatchOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(batch) {
				t.Fatalf("got %d results for %d sub-queries", len(got), len(batch))
			}
			checkBatchMatchesSequential(t, x, batch, got)
		}
	}
}

// TestQueryBatchDisabledRequiredValues covers the DisableRequiredValues
// build, where forward entries are matrix-ineligible and must fall back
// to the full candidate set inside search.
func TestQueryBatchDisabledRequiredValues(t *testing.T) {
	ds := randDataset(rand.New(rand.NewSource(22)), 30, 200)
	opt := DefaultOptions(ds.Horizon())
	opt.DisableRequiredValues = true
	x, err := Build(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultDays(ds.Horizon())
	var batch []BatchQuery
	for i := 0; i < ds.Len(); i += 3 {
		batch = append(batch, BatchQuery{ByID: true, ID: history.AttrID(i),
			Options: QueryOptions{Mode: ModeForward, Params: p}})
	}
	got, err := x.QueryBatch(context.Background(), batch, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkBatchMatchesSequential(t, x, batch, got)
}

func TestQueryBatchValidation(t *testing.T) {
	ds, x := queryTestIndex(t, 23, 10)
	p := core.DefaultDays(ds.Horizon())
	ctx := context.Background()

	if res, err := x.QueryBatch(ctx, nil, BatchOptions{}); err != nil || res != nil {
		t.Fatalf("empty batch: got (%v, %v), want (nil, nil)", res, err)
	}
	bad := [][]BatchQuery{
		{{Options: QueryOptions{Mode: ModeForward, Params: p}}},                                     // nil query
		{{Query: ds.Attr(0), Options: QueryOptions{Mode: Mode(9), Params: p}}},                      // unknown mode
		{{Query: ds.Attr(0), Options: QueryOptions{Mode: ModeTopK, Params: p}}},                     // K = 0
		{{ByID: true, ID: history.AttrID(99), Options: QueryOptions{Mode: ModeForward, Params: p}}}, // out of range
	}
	for i, batch := range bad {
		if _, err := x.QueryBatch(ctx, batch, BatchOptions{}); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("bad batch %d: err %v, want ErrInvalidOptions", i, err)
		}
	}
	good := []BatchQuery{{Query: ds.Attr(0), Options: QueryOptions{Mode: ModeForward, Params: p}}}
	if _, err := x.QueryBatch(ctx, good, BatchOptions{Workers: -1}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("negative workers: err %v, want ErrInvalidOptions", err)
	}
}

func TestQueryBatchCanceled(t *testing.T) {
	ds, x := queryTestIndex(t, 24, 30)
	p := core.DefaultDays(ds.Horizon())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	batch := mixedBatch(ds, p)
	res, err := x.QueryBatch(ctx, batch, BatchOptions{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled batch: err %v, want ErrCanceled", err)
	}
	if len(res) != len(batch) {
		t.Fatalf("canceled batch: %d results, want the full %d (with partial stats)", len(res), len(batch))
	}
	// The failing entry is named by its position — except in a batch of
	// one, which is a lone query and reports exactly what Query reports.
	if !strings.HasPrefix(err.Error(), "batch entry 0: ") {
		t.Fatalf("canceled batch: err %q does not name the entry", err)
	}
	o := QueryOptions{Mode: ModeForward, Params: p}
	_, want := x.Query(ctx, ds.Attr(0), o)
	_, lone := x.QueryBatch(ctx, []BatchQuery{{Query: ds.Attr(0), Options: o}}, BatchOptions{})
	if lone == nil || lone.Error() != want.Error() {
		t.Fatalf("batch of one: err %q, want Query's %q", lone, want)
	}
}

// TestQueryErrorTimingsPopulated is the regression test for the Timings
// contract on validation-error paths: Query must stamp Timings.Total (and
// Stats.Elapsed) even when the options are rejected before the pipeline
// runs. A lone query by id is a one-entry batch: rejected, it fails typed
// and returns no result at all, so there is nothing left unstamped.
func TestQueryErrorTimingsPopulated(t *testing.T) {
	ds, x := queryTestIndex(t, 25, 10)
	p := core.DefaultDays(ds.Horizon())
	ctx := context.Background()

	res, err := x.Query(ctx, ds.Attr(0), QueryOptions{Mode: Mode(42), Params: p})
	if err == nil {
		t.Fatal("bad mode accepted")
	}
	if res.Stats.Timings.Total <= 0 || res.Stats.Elapsed != res.Stats.Timings.Total {
		t.Fatalf("Query validation error: Timings not populated: %+v", res.Stats)
	}

	byID := func(id history.AttrID, o QueryOptions) ([]Result, error) {
		return x.QueryBatch(ctx, []BatchQuery{{ByID: true, ID: id, Options: o}}, BatchOptions{})
	}
	got, err := byID(1000, QueryOptions{Mode: ModeForward, Params: p})
	if !errors.Is(err, ErrInvalidOptions) || got != nil {
		t.Fatalf("out-of-range id: got (%v, %v), want (nil, ErrInvalidOptions)", got, err)
	}
	got, err = byID(0, QueryOptions{Mode: ModeTopK, Params: p, K: -1})
	if !errors.Is(err, ErrInvalidOptions) || got != nil {
		t.Fatalf("bad K by id: got (%v, %v), want (nil, ErrInvalidOptions)", got, err)
	}
}

// runSingles issues every batch entry on its own, through Query or — for a
// ByID entry — as a one-entry batch: the same pooled path, one arena per
// call.
func runSingles(ctx context.Context, x *Index, batch []BatchQuery) ([]Result, error) {
	out := make([]Result, len(batch))
	for i, bq := range batch {
		var err error
		if bq.ByID {
			var res []Result
			if res, err = x.QueryBatch(ctx, []BatchQuery{bq}, BatchOptions{}); err == nil {
				out[i] = res[0]
			}
		} else {
			out[i], err = x.Query(ctx, bq.Query, bq.Options)
		}
		if err != nil {
			return out, fmt.Errorf("entry %d: %w", i, err)
		}
	}
	return out, nil
}

// TestQueryBatchDeepIndependence is the pooling-safety test: mutating
// one returned Result must never alias another result or show up in a
// later run's answers drawn from the recycled pool, and a later run must
// never write through an earlier Result. It covers both entry points
// (QueryBatch, and each entry on its own through runSingles — mixedBatch
// has top-k and ByID entries) and both validation branches: sequential, whose
// accumulator is arena memory, and parallel, which only reads the arena.
// Which branch runs is decided per run, not by an option: a query alone
// and the entries of a one-worker batch validate on GOMAXPROCS goroutines
// (pinned here, so the parallel side runs on a 2-core runner too), the
// entries of a multi-worker batch on one.
func TestQueryBatchDeepIndependence(t *testing.T) {
	ds := randDataset(rand.New(rand.NewSource(26)), 40, 200)
	p := core.DefaultDays(ds.Horizon())
	ctx := context.Background()
	batch := mixedBatch(ds, p)
	opt := DefaultOptions(ds.Horizon())
	opt.Reverse = true
	x := buildTestIndex(t, ds, opt)
	for _, valWorkers := range []int{1, 4} {
		batchWorkers := 1
		if valWorkers == 1 {
			batchWorkers = 4
		}
		runners := []struct {
			name string
			run  func(x *Index) ([]Result, error)
		}{
			{"QueryBatch", func(x *Index) ([]Result, error) {
				return x.QueryBatch(ctx, batch, BatchOptions{Workers: batchWorkers})
			}},
			{"Query", func(x *Index) ([]Result, error) { return runSingles(ctx, x, batch) }},
		}
		for _, rn := range runners {
			t.Run(fmt.Sprintf("%s/validation-workers=%d", rn.name, valWorkers), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(valWorkers))
				first, err := rn.run(x)
				if err != nil {
					t.Fatal(err)
				}
				// Deep-copy the answers, then scribble over every returned slice.
				type copied struct {
					ids    []history.AttrID
					ranked []Ranked
				}
				saved := make([]copied, len(first))
				for i := range first {
					saved[i].ids = append([]history.AttrID(nil), first[i].IDs...)
					saved[i].ranked = append([]Ranked(nil), first[i].Ranked...)
				}
				scribble := Ranked{ID: -7, Violation: -1}
				for i := range first {
					for j := range first[i].IDs {
						first[i].IDs[j] = scribble.ID
					}
					for j := range first[i].Ranked {
						first[i].Ranked[j] = scribble
					}
				}
				// A fresh run on the recycled pool must be untouched by the scribble.
				second, err := rn.run(x)
				if err != nil {
					t.Fatal(err)
				}
				for i := range second {
					if !idsEqual(second[i].IDs, saved[i].ids) {
						t.Fatalf("entry %d: recycled-pool IDs %v, want %v", i, second[i].IDs, saved[i].ids)
					}
					if len(second[i].Ranked) != len(saved[i].ranked) {
						t.Fatalf("entry %d: recycled-pool ranked length changed", i)
					}
					for j := range saved[i].ranked {
						if second[i].Ranked[j] != saved[i].ranked[j] {
							t.Fatalf("entry %d rank %d: recycled-pool %+v, want %+v", i, j, second[i].Ranked[j], saved[i].ranked[j])
						}
					}
					// ...and must not have written through the first run's slices.
					for j, id := range first[i].IDs {
						if id != scribble.ID {
							t.Fatalf("entry %d id %d: a later run wrote %d into an earlier Result", i, j, id)
						}
					}
					for j, rk := range first[i].Ranked {
						if rk != scribble {
							t.Fatalf("entry %d rank %d: a later run wrote %+v into an earlier Result", i, j, rk)
						}
					}
				}
			})
		}
	}
}

// TestQueryBatchConcurrentRefresh is the -race hammer: QueryBatch and
// per-entry runSingles (with parallel validation, whose workers
// share the run's arena work list) run with deliberately interleaved
// Refresh (a pure index-state rewrite) and results must stay exact once
// the dust settles.
func TestQueryBatchConcurrentRefresh(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	r := rand.New(rand.NewSource(27))
	horizon := timeline.Time(60)
	ds := randDataset(r, 12, horizon)
	p := core.Params{Epsilon: 2, Delta: 2, Weight: timeline.Uniform(horizon)}
	idx := buildTestIndex(t, ds, Options{
		Bloom:   bloom.Params{M: 256, K: 2},
		Slices:  4,
		Params:  p,
		Reverse: true,
		Seed:    27,
	})

	allIDs := make([]history.AttrID, ds.Len())
	for i := range allIDs {
		allIDs[i] = history.AttrID(i)
	}
	batch := mixedBatch(ds, p)

	const batchers = 3
	var wg sync.WaitGroup
	errs := make(chan error, 2*batchers+1)
	for g := 0; g < batchers; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if _, err := idx.QueryBatch(context.Background(), batch, BatchOptions{}); err != nil {
					errs <- err
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if _, err := runSingles(context.Background(), idx, batch); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := idx.Refresh(allIDs, horizon); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	got, err := idx.QueryBatch(context.Background(), batch, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	single, err := runSingles(context.Background(), idx, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, bq := range batch {
		if bq.Options.Mode != ModeForward {
			continue
		}
		q := bq.Query
		if bq.ByID {
			q = ds.Attr(bq.ID)
		}
		want := bruteSearch(ds, q, bq.Options.Params)
		if !idsEqual(got[i].IDs, want) || !idsEqual(single[i].IDs, want) {
			t.Fatalf("after concurrent refreshes, entry %d: batch %v, single %v, want %v",
				i, got[i].IDs, single[i].IDs, want)
		}
	}
}
