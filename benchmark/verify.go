package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/timeline"
)

// verifier checks server answers against brute force over the
// benchmark's own copy of the dataset: core.Holds / core.ViolationWeight
// per candidate pair, no index, no pruning. A violation within
// 1e-9·(1+total) of a threshold is borderline under float summation
// order and may fall either way — the differential suites' band.
type verifier struct {
	ds  *history.Dataset
	w   timeline.WeightFunc
	tol float64
}

func newVerifier(ds *history.Dataset) *verifier {
	w := timeline.Uniform(ds.Horizon())
	total := w.Sum(timeline.NewInterval(0, w.Horizon()))
	return &verifier{ds: ds, w: w, tol: 1e-9 * (1 + total)}
}

// setBody is the reply of /search and /reverse (and one batch entry).
type setBody struct {
	Results []struct {
		ID int `json:"id"`
	} `json:"results"`
}

type topkBody struct {
	Results []struct {
		ID        int     `json:"id"`
		Violation float64 `json:"violation"`
	} `json:"results"`
}

type batchBody struct {
	Results []json.RawMessage `json:"results"`
}

// check verifies one retained answer.
func (v *verifier) check(a answer) error {
	switch a.req.op {
	case opSearch:
		return v.checkSetBody(a.body, a.req.attrs[0], false, nativeEps, nativeDelta)
	case opReverse:
		return v.checkSetBody(a.body, a.req.attrs[0], true, nativeEps, nativeDelta)
	case opRelaxed:
		return v.checkSetBody(a.body, a.req.attrs[0], true, relaxedEps, relaxedDelta)
	case opTopK:
		return v.checkTopK(a.body, a.req.attrs[0])
	case opBatch:
		var b batchBody
		if err := json.Unmarshal(a.body, &b); err != nil {
			return fmt.Errorf("batch body: %w", err)
		}
		if len(b.Results) != len(a.req.attrs) {
			return fmt.Errorf("batch returned %d entries for %d queries", len(b.Results), len(a.req.attrs))
		}
		for j, raw := range b.Results {
			if err := v.checkSetBody(raw, a.req.attrs[j], j >= batchEntries/2, nativeEps, nativeDelta); err != nil {
				return fmt.Errorf("batch entry %d: %w", j, err)
			}
		}
		return nil
	}
	return fmt.Errorf("no verifier for op %q", a.req.op)
}

func (v *verifier) checkSetBody(body []byte, q int, reverse bool, eps float64, delta int) error {
	var b setBody
	if err := json.Unmarshal(body, &b); err != nil {
		return fmt.Errorf("body: %w", err)
	}
	got := make(map[int]bool, len(b.Results))
	for _, r := range b.Results {
		got[r.ID] = true
	}
	if len(got) != len(b.Results) {
		return fmt.Errorf("attr %d: duplicate ids in result", q)
	}
	lo := core.Params{Epsilon: eps - v.tol, Delta: timeline.Time(delta), Weight: v.w}
	hi := core.Params{Epsilon: eps + v.tol, Delta: timeline.Time(delta), Weight: v.w}
	qh := v.ds.Attr(history.AttrID(q))
	for i := 0; i < v.ds.Len(); i++ {
		if i == q {
			if got[i] {
				return fmt.Errorf("attr %d: result contains the query attribute", q)
			}
			continue
		}
		lhs, rhs := qh, v.ds.Attr(history.AttrID(i))
		if reverse {
			lhs, rhs = rhs, lhs
		}
		switch {
		case core.Holds(lhs, rhs, lo):
			if !got[i] {
				return fmt.Errorf("attr %d (reverse=%v, eps=%g, delta=%d): missing result %d", q, reverse, eps, delta, i)
			}
		case got[i] && !core.Holds(lhs, rhs, hi):
			return fmt.Errorf("attr %d (reverse=%v, eps=%g, delta=%d): false positive %d", q, reverse, eps, delta, i)
		}
	}
	return nil
}

// checkTopK verifies a ranking: every reported violation is the exact
// weight, the order is (violation, id) ascending, and no attribute left
// out beats the k-th entry.
func (v *verifier) checkTopK(body []byte, q int) error {
	var b topkBody
	if err := json.Unmarshal(body, &b); err != nil {
		return fmt.Errorf("body: %w", err)
	}
	p := core.Params{Delta: nativeDelta, Weight: v.w}
	qh := v.ds.Attr(history.AttrID(q))
	in := make(map[int]bool, len(b.Results))
	for i, r := range b.Results {
		if r.ID == q || r.ID < 0 || r.ID >= v.ds.Len() || in[r.ID] {
			return fmt.Errorf("topk %d: bad or repeated id %d", q, r.ID)
		}
		in[r.ID] = true
		exact := core.ViolationWeight(qh, v.ds.Attr(history.AttrID(r.ID)), p)
		if diff := exact - r.Violation; diff > v.tol || diff < -v.tol {
			return fmt.Errorf("topk %d: id %d reported violation %g, exact %g", q, r.ID, r.Violation, exact)
		}
		if i > 0 {
			prev := b.Results[i-1]
			if prev.Violation > r.Violation+v.tol || (prev.Violation == r.Violation && prev.ID > r.ID) {
				return fmt.Errorf("topk %d: entries %d and %d out of (violation, id) order", q, i-1, i)
			}
		}
	}
	want := min(topK, v.ds.Len()-1)
	if len(b.Results) != want {
		return fmt.Errorf("topk %d: %d results, want %d", q, len(b.Results), want)
	}
	if want == v.ds.Len()-1 {
		return nil // everything is ranked; nothing can be missing
	}
	last := b.Results[len(b.Results)-1]
	better := core.Params{Epsilon: last.Violation - v.tol, Delta: nativeDelta, Weight: v.w}
	tie := core.Params{Epsilon: last.Violation + v.tol, Delta: nativeDelta, Weight: v.w}
	for i := 0; i < v.ds.Len(); i++ {
		if i == q || in[i] {
			continue
		}
		a := v.ds.Attr(history.AttrID(i))
		if core.Holds(qh, a, better) {
			return fmt.Errorf("topk %d: attribute %d beats the k-th entry (violation %g) but is missing", q, i, last.Violation)
		}
		// An exact tie with the k-th entry loses only to a smaller id. The
		// early-exit check keeps the full weight to the rare near-ties.
		if i < last.ID && core.Holds(qh, a, tie) && core.ViolationWeight(qh, a, p) == last.Violation {
			return fmt.Errorf("topk %d: attribute %d ties the k-th entry %d and has the smaller id", q, i, last.ID)
		}
	}
	return nil
}

// checkAll verifies the answers on all cores and returns the failures.
func (v *verifier) checkAll(answers []answer) []error {
	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
		jobs = make(chan answer)
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range jobs {
				if err := v.check(a); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	// Dearest first, so the two workers finish together: a batch is 32 set
	// checks in one job and a top-k check costs ten set checks.
	cost := map[string]int{opBatch: 3, opTopK: 2, opRelaxed: 1}
	queue := append([]answer(nil), answers...)
	sort.SliceStable(queue, func(i, j int) bool { return cost[queue[i].req.op] > cost[queue[j].req.op] })
	for _, a := range queue {
		jobs <- a
	}
	close(jobs)
	wg.Wait()
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return errs
}
