package main

import (
	"context"
	"encoding/json"
	"testing"

	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/timeline"
)

// The verifier is the judge of every run, so it is itself tested from
// both sides: it must accept what the engine answers and reject each way
// an answer can be wrong.

type idEntry struct {
	ID int `json:"id"`
}

type rankedEntry struct {
	ID        int     `json:"id"`
	Violation float64 `json:"violation"`
}

func setJSON(ids []history.AttrID) []byte {
	out := struct {
		Results []idEntry `json:"results"`
	}{Results: []idEntry{}}
	for _, id := range ids {
		out.Results = append(out.Results, idEntry{int(id)})
	}
	buf, _ := json.Marshal(out)
	return buf
}

func rankedJSON(rs []index.Ranked) []byte {
	out := struct {
		Results []rankedEntry `json:"results"`
	}{Results: []rankedEntry{}}
	for _, r := range rs {
		out.Results = append(out.Results, rankedEntry{int(r.ID), r.Violation})
	}
	buf, _ := json.Marshal(out)
	return buf
}

func TestVerifierAcceptsEngineAndRejectsCorruption(t *testing.T) {
	corpus, err := generateCorpus(150, 300)
	if err != nil {
		t.Fatal(err)
	}
	ds := corpus.Dataset
	opt := index.DefaultOptions(ds.Horizon())
	opt.Reverse = true
	idx, err := index.Build(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	w := timeline.Uniform(ds.Horizon())
	native := core.Params{Epsilon: nativeEps, Delta: nativeDelta, Weight: w}
	v := newVerifier(ds)
	ctx := context.Background()

	var withResults, checked int
	for q := 0; q < ds.Len(); q++ {
		qh := ds.Attr(history.AttrID(q))
		for _, c := range []struct {
			op   string
			mode index.Mode
			p    core.Params
		}{
			{opSearch, index.ModeForward, native},
			{opReverse, index.ModeReverse, native},
			{opRelaxed, index.ModeReverse, core.Params{Epsilon: relaxedEps, Delta: relaxedDelta, Weight: w}},
		} {
			if c.op == opRelaxed && q%10 != 0 {
				continue
			}
			res, err := idx.Query(ctx, qh, index.QueryOptions{Mode: c.mode, Params: c.p})
			if err != nil {
				t.Fatal(err)
			}
			req := request{op: c.op, attrs: []int{q}}
			if err := v.check(answer{req: req, body: setJSON(res.IDs)}); err != nil {
				t.Fatalf("verifier rejects the engine's answer: %v", err)
			}
			checked++
			// Dropping a true result must be caught — one clear of the ε
			// threshold, since a violation of exactly ε is borderline and
			// may fall either way.
			for i, id := range res.IDs {
				lhs, rhs := qh, ds.Attr(id)
				if c.mode == index.ModeReverse {
					lhs, rhs = rhs, lhs
				}
				if core.ViolationWeight(lhs, rhs, c.p) > c.p.Epsilon-1 {
					continue
				}
				withResults++
				dropped := append(append([]history.AttrID(nil), res.IDs[:i]...), res.IDs[i+1:]...)
				if err := v.check(answer{req: req, body: setJSON(dropped)}); err == nil {
					t.Fatalf("%s %d: dropped result %d went unnoticed", c.op, q, id)
				}
				break
			}
		}
		// ...and so must an attribute that does not belong.
		res, err := idx.Query(ctx, qh, index.QueryOptions{Mode: index.ModeForward, Params: native})
		if err != nil {
			t.Fatal(err)
		}
		in := map[history.AttrID]bool{history.AttrID(q): true}
		for _, id := range res.IDs {
			in[id] = true
		}
		for a := 0; a < ds.Len(); a++ {
			if !in[history.AttrID(a)] && core.ViolationWeight(qh, ds.Attr(history.AttrID(a)), native) > nativeEps+1 {
				bad := append(append([]history.AttrID(nil), res.IDs...), history.AttrID(a))
				if err := v.check(answer{req: request{op: opSearch, attrs: []int{q}}, body: setJSON(bad)}); err == nil {
					t.Fatalf("search %d: false positive %d went unnoticed", q, a)
				}
				break
			}
		}
	}
	if withResults == 0 {
		t.Fatalf("no query of %d had results; the corruption half of the test never ran", checked)
	}

	for q := 0; q < ds.Len(); q += 15 {
		qh := ds.Attr(history.AttrID(q))
		res, err := idx.Query(ctx, qh, index.QueryOptions{Mode: index.ModeTopK, K: topK,
			Params: core.Params{Delta: nativeDelta, Weight: w}})
		if err != nil {
			t.Fatal(err)
		}
		req := request{op: opTopK, attrs: []int{q}}
		if err := v.check(answer{req: req, body: rankedJSON(res.Ranked)}); err != nil {
			t.Fatalf("verifier rejects the engine's ranking: %v", err)
		}
		short := res.Ranked[:len(res.Ranked)-1]
		if err := v.check(answer{req: req, body: rankedJSON(short)}); err == nil {
			t.Fatalf("topk %d: a short ranking went unnoticed", q)
		}
		wrong := append([]index.Ranked(nil), res.Ranked...)
		wrong[0].Violation += 1
		if err := v.check(answer{req: req, body: rankedJSON(wrong)}); err == nil {
			t.Fatalf("topk %d: a wrong violation went unnoticed", q)
		}
		// Replace the best entry by the worst attribute of the corpus: the
		// ranking now misses an attribute that beats its k-th entry.
		worst, worstV := -1, -1.0
		in := map[history.AttrID]bool{history.AttrID(q): true}
		for _, r := range res.Ranked {
			in[r.ID] = true
		}
		for a := 0; a < ds.Len(); a++ {
			if in[history.AttrID(a)] {
				continue
			}
			if vw := core.ViolationWeight(qh, ds.Attr(history.AttrID(a)), core.Params{Delta: nativeDelta, Weight: w}); vw > worstV {
				worst, worstV = a, vw
			}
		}
		last := res.Ranked[len(res.Ranked)-1]
		if worstV > last.Violation && res.Ranked[0].Violation < last.Violation {
			swapped := append(append([]index.Ranked(nil), res.Ranked[1:]...), index.Ranked{ID: history.AttrID(worst), Violation: worstV})
			if err := v.check(answer{req: req, body: rankedJSON(swapped)}); err == nil {
				t.Fatalf("topk %d: a ranking that misses its best attribute went unnoticed", q)
			}
		}
	}
}
