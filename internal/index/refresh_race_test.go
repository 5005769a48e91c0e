package index

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/timeline"
)

// TestRefreshConcurrentWithQueries is the -race regression test for the
// Refresh guard: Refresh rewrites M_T/M_R columns, the slice fill ends,
// the prefix index's maximum violations and the option weight while
// forward, reverse (native and relaxed, the latter read the prefix index)
// and all-pairs queries hammer the same index. Before the RWMutex this was a documented-but-unenforced
// "must not run concurrently" contract; now Refresh blocks queries and
// the detector must stay silent. Results are re-checked against brute
// force once the dust settles.
func TestRefreshConcurrentWithQueries(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	horizon := timeline.Time(60)
	ds := randDataset(r, 12, horizon)
	p := core.Params{Epsilon: 2, Delta: 2, Weight: timeline.Uniform(horizon)}
	relaxed := core.Params{Epsilon: 10, Delta: 5, Weight: p.Weight}
	idx := buildTestIndex(t, ds, Options{
		Bloom:   bloom.Params{M: 256, K: 2},
		Slices:  4,
		Params:  p,
		Reverse: true,
		Seed:    11,
	})

	allIDs := make([]history.AttrID, ds.Len())
	for i := range allIDs {
		allIDs[i] = history.AttrID(i)
	}

	const queriers = 4
	const queriesEach = 30
	var wg sync.WaitGroup
	errs := make(chan error, queriers+1)
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < queriesEach; i++ {
				q := ds.Attr(history.AttrID((g + i) % ds.Len()))
				o := QueryOptions{Mode: ModeForward, Params: p}
				switch i % 3 {
				case 1:
					o.Mode = ModeReverse
				case 2:
					o = QueryOptions{Mode: ModeReverse, Params: relaxed}
				}
				if _, err := idx.Query(context.Background(), q, o); err != nil {
					errs <- err
					return
				}
				if i%10 == 0 {
					if _, err := idx.AllPairsContext(context.Background(), p, 2); err != nil {
						errs <- err
						return
					}
					idx.Stats()
					idx.Options()
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// No data actually changed, so every Refresh is a pure index-state
		// rewrite: column re-sets, fill-end writes, weight replacement —
		// exactly the mutations the lock must fence.
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

	for trial := 0; trial < 4; trial++ {
		q := ds.Attr(history.AttrID(r.Intn(ds.Len())))
		res, err := idx.Search(q, p)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteSearch(ds, q, p); !idsEqual(res.IDs, want) {
			t.Fatalf("after concurrent refreshes: got %v, want %v", res.IDs, want)
		}
		rres, err := idx.Reverse(q, p)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteReverse(ds, q, p); !idsEqual(rres.IDs, want) {
			t.Fatalf("after concurrent refreshes (reverse): got %v, want %v", rres.IDs, want)
		}
		if rres, err = idx.Reverse(q, relaxed); err != nil {
			t.Fatal(err)
		}
		if want := bruteReverse(ds, q, relaxed); !idsEqual(rres.IDs, want) {
			t.Fatalf("after concurrent refreshes (relaxed reverse): got %v, want %v", rres.IDs, want)
		}
	}
}
