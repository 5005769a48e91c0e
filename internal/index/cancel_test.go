package index

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tind/internal/core"
	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/timeline"
)

func cancelTestIndex(t *testing.T) (*Index, *history.Dataset) {
	t.Helper()
	c, err := datagen.Generate(datagen.Config{Seed: 11, Attributes: 120, Horizon: 400, AttrsPerDomain: 30})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions(c.Dataset.Horizon())
	opt.Reverse = true
	idx, err := Build(c.Dataset, opt)
	if err != nil {
		t.Fatal(err)
	}
	return idx, c.Dataset
}

func TestSearchContextAlreadyCanceled(t *testing.T) {
	idx, ds := cancelTestIndex(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	start := time.Now()
	res, err := idx.Query(ctx, ds.Attr(0), QueryOptions{Mode: ModeForward, Params: core.DefaultDays(ds.Horizon())})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal("typed error must still unwrap to context.Canceled")
	}
	if len(res.IDs) != 0 {
		t.Fatalf("canceled search must not return results: %v", res.IDs)
	}
	if res.Stats.Elapsed <= 0 {
		t.Fatal("partial stats must carry elapsed time")
	}
	// "Promptly" for an 120-attribute corpus: well under a second.
	if d := time.Since(start); d > time.Second {
		t.Fatalf("canceled search took %v", d)
	}
}

func TestReverseContextAlreadyCanceled(t *testing.T) {
	idx, ds := cancelTestIndex(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := idx.Query(ctx, ds.Attr(0), QueryOptions{Mode: ModeReverse, Params: core.DefaultDays(ds.Horizon())})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestSearchContextExpiredDeadline(t *testing.T) {
	idx, ds := cancelTestIndex(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := idx.Query(ctx, ds.Attr(0), QueryOptions{Mode: ModeForward, Params: core.DefaultDays(ds.Horizon())})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("typed error must still unwrap to context.DeadlineExceeded")
	}
}

func TestAllPairsContextAlreadyCanceled(t *testing.T) {
	idx, ds := cancelTestIndex(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	pairs, err := idx.AllPairsContext(ctx, core.DefaultDays(ds.Horizon()), 4)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if pairs != nil {
		t.Fatal("canceled discovery must not return pairs")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("canceled discovery took %v", d)
	}
}

func TestTopKContextAlreadyCanceled(t *testing.T) {
	idx, ds := cancelTestIndex(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := idx.Query(ctx, ds.Attr(0), QueryOptions{Mode: ModeTopK, Params: core.Params{Delta: 7, Weight: timeline.Uniform(ds.Horizon())}, K: 5}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestSearchContextMidFlightCancellation(t *testing.T) {
	// Cancel while the query runs (not before): the query must stop at
	// the next checkpoint with the typed error, not run to completion
	// having ignored the context.
	idx, ds := cancelTestIndex(t)
	p := core.DefaultDays(ds.Horizon())
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Microsecond)
		cancel()
	}()
	// Run searches until the cancellation lands mid-flight or we run out
	// of queries; either way every returned error must be typed.
	for i := 0; i < ds.Len(); i++ {
		_, err := idx.Query(ctx, ds.Attr(history.AttrID(i)), QueryOptions{Mode: ModeForward, Params: p})
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("mid-flight cancellation produced untyped error: %v", err)
		}
		return
	}
	// The corpus is tiny, so all queries may finish before the timer
	// fires; that is not a failure of the cancellation machinery.
	t.Log("cancellation did not land mid-flight (corpus too fast); typed-error path covered by other tests")
}

// expiringCtx is a context whose deadline passes at its expireAt-th Err
// call: a deadline that lands at a chosen poll, whatever the machine's
// speed. Validation workers poll it concurrently.
type expiringCtx struct {
	context.Context
	expireAt int64
	calls    atomic.Int64
}

func (c *expiringCtx) Err() error {
	if c.calls.Add(1) >= c.expireAt {
		return context.DeadlineExceeded
	}
	return nil
}

// TestTopKMidFlightCancellation lets the deadline of a top-k query pass
// inside its scan, which polls once per probe of M_T for a version of Q
// and at the start of every pair it sweeps: the query returns
// ErrDeadlineExceeded with the scan's funnel, after at most one more poll
// per validation worker, instead of finishing the round. The deadline
// passes half-way through the full run's polls, and at its last one, which
// a swept pair takes. The pairs outside the key reach are decided together
// after a single poll, and the reached pairs that cannot rank are never
// swept.
func TestTopKMidFlightCancellation(t *testing.T) {
	idx, ds := cancelTestIndex(t)
	o := QueryOptions{Mode: ModeTopK, Params: core.Params{Delta: 7, Weight: timeline.Uniform(ds.Horizon())}, K: 5}
	q := ds.Attr(0)
	probes := int64(0)
	for i := range q.NumVersions() {
		if !q.Version(i).Values.IsEmpty() && !q.Validity(i).Clamp(ds.Horizon()).IsEmpty() {
			probes++
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, workers := range []int{1, 2} {
		runtime.GOMAXPROCS(workers)
		// The whole query polls this often when nothing expires.
		full := &expiringCtx{Context: context.Background(), expireAt: math.MaxInt64}
		before := qm[ModeTopK].windowSweeps.Value()
		res, err := idx.Query(full, q, o)
		if err != nil {
			t.Fatal(err)
		}
		polls, sweeps := full.calls.Load(), qm[ModeTopK].windowSweeps.Value()-before
		if res.Stats.InitialCandidates != ds.Len()-1 || probes < 8 || sweeps < 1 || polls < sweeps+probes {
			t.Fatalf("query 0 scanned %d of %d candidates with %d probes, %d window sweeps and %d polls; the test needs a full scan that probes ≥ 8 versions and sweeps a pair",
				res.Stats.InitialCandidates, ds.Len()-1, probes, sweeps, polls)
		}
		for _, expireAt := range []int64{polls / 2, polls} {
			ctx := &expiringCtx{Context: context.Background(), expireAt: expireAt}
			res, err = idx.Query(ctx, q, o)
			if !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("workers=%d, expiry at poll %d of %d: want ErrDeadlineExceeded, got %v", workers, expireAt, polls, err)
			}
			if res.Ranked != nil || res.Stats.InitialCandidates != ds.Len()-1 {
				t.Fatalf("workers=%d, expiry at poll %d of %d: aborted scan returned %d ranked, funnel %d; want none from a scan of %d",
					workers, expireAt, polls, len(res.Ranked), res.Stats.InitialCandidates, ds.Len()-1)
			}
			if late := ctx.calls.Load() - ctx.expireAt; late > int64(workers) {
				t.Fatalf("workers=%d: %d polls after the deadline passed; each worker must stop at its next pair", workers, late)
			}
		}
	}
}

func TestSearchContextBackgroundMatchesSearch(t *testing.T) {
	idx, ds := cancelTestIndex(t)
	p := core.DefaultDays(ds.Horizon())
	q := ds.Attr(3)
	plain, err := idx.Search(q, p)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := idx.Query(context.Background(), q, QueryOptions{Mode: ModeForward, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.IDs) != len(ctxed.IDs) {
		t.Fatalf("context plumbing changed results: %d vs %d", len(plain.IDs), len(ctxed.IDs))
	}
	for i := range plain.IDs {
		if plain.IDs[i] != ctxed.IDs[i] {
			t.Fatalf("result %d differs: %d vs %d", i, plain.IDs[i], ctxed.IDs[i])
		}
	}
}

func TestAllPairsClampsNonPositiveWorkers(t *testing.T) {
	// Regression: workers ≤ 0 must behave like the GOMAXPROCS default,
	// not spawn zero workers and silently discover nothing.
	idx, ds := cancelTestIndex(t)
	p := core.DefaultDays(ds.Horizon())
	want, err := idx.AllPairsContext(context.Background(), p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("test corpus must contain tINDs")
	}
	for _, workers := range []int{0, -1, -100} {
		got, err := idx.AllPairsContext(context.Background(), p, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d pairs, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: pair %d differs", workers, i)
			}
		}
	}
}
