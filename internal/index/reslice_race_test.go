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

// TestResliceConcurrentWithQueriesAndRefresh is the -race hammer for the
// re-slicing path: forward/reverse queries, Stats readers, full-corpus
// refreshes and repeated Reslice passes all hit one index at once. The
// detector checks the locking discipline (Refresh and Reslice write under
// the write lock, queries read under the read lock); the slice check and
// brute force afterwards check that no interleaving lost exactness.
func TestResliceConcurrentWithQueriesAndRefresh(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	horizon := timeline.Time(60)
	ds := randDataset(r, 12, horizon)
	p := core.Params{Epsilon: 2, Delta: 2, Weight: timeline.Uniform(horizon)}
	idx := buildTestIndex(t, ds, Options{
		Bloom:   bloom.Params{M: 256, K: 2},
		Slices:  4,
		Params:  p,
		Reverse: true,
		Seed:    17,
	})

	allIDs := make([]history.AttrID, ds.Len())
	for i := range allIDs {
		allIDs[i] = history.AttrID(i)
	}

	const queriers = 4
	const queriesEach = 30
	var wg sync.WaitGroup
	errs := make(chan error, queriers+2)
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < queriesEach; i++ {
				q := ds.Attr(history.AttrID((g + i) % ds.Len()))
				mode := ModeForward
				if i%2 == 1 {
					mode = ModeReverse
				}
				if _, err := idx.Query(context.Background(), q, QueryOptions{Mode: mode, Params: p}); err != nil {
					errs <- err
					return
				}
				if i%10 == 0 {
					idx.Stats()
					idx.Options()
				}
			}
		}(g)
	}
	// Refresher: no data changes, so each refresh is a pure index-state
	// rewrite racing the reslicer.
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
	// Repeatedly rebuilds the slice state while the above run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, err := idx.Reslice(); err != nil {
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

	if err := idx.CheckSlices(); err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 4; trial++ {
		q := ds.Attr(history.AttrID(r.Intn(ds.Len())))
		res, err := idx.Search(q, p)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteSearch(ds, q, p); !idsEqual(res.IDs, want) {
			t.Fatalf("after concurrent reslices: got %v, want %v", res.IDs, want)
		}
		rres, err := idx.Reverse(q, p)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteReverse(ds, q, p); !idsEqual(rres.IDs, want) {
			t.Fatalf("after concurrent reslices (reverse): got %v, want %v", rres.IDs, want)
		}
	}
}
