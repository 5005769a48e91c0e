package index

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/obs"
)

// The phase names obs declares, as this package's tests spell them.
const (
	phaseMTPrune     = obs.PhaseMTPrune
	phaseSlicePrune  = obs.PhaseSlicePrune
	phaseSubsetCheck = obs.PhaseSubsetCheck
	phaseValidate    = obs.PhaseValidate
	phaseRank        = obs.PhaseRank
)

// queryTestIndex builds a reverse-capable index over a random dataset.
func queryTestIndex(t *testing.T, seed int64, nAttrs int) (*history.Dataset, *Index) {
	t.Helper()
	ds := randDataset(rand.New(rand.NewSource(seed)), nAttrs, 200)
	opt := DefaultOptions(ds.Horizon())
	opt.Reverse = true
	x, err := Build(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ds, x
}

func TestQueryModeDispatch(t *testing.T) {
	ds, x := queryTestIndex(t, 11, 40)
	p := core.DefaultDays(ds.Horizon())
	ctx := context.Background()
	for i := 0; i < ds.Len(); i += 7 {
		q := ds.Attr(history.AttrID(i))

		fwd, err := x.Query(ctx, q, QueryOptions{Mode: ModeForward, Params: p})
		if err != nil {
			t.Fatal(err)
		}
		if !idsEqual(fwd.IDs, bruteSearch(ds, q, p)) {
			t.Fatalf("attr %d: forward Query deviates from brute force", i)
		}

		rev, err := x.Query(ctx, q, QueryOptions{Mode: ModeReverse, Params: p})
		if err != nil {
			t.Fatal(err)
		}
		if !idsEqual(rev.IDs, bruteReverse(ds, q, p)) {
			t.Fatalf("attr %d: reverse Query deviates from brute force", i)
		}

		top, err := x.Query(ctx, q, QueryOptions{Mode: ModeTopK, Params: core.Params{Delta: p.Delta, Weight: p.Weight}, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if top.IDs != nil {
			t.Fatal("ModeTopK must leave IDs nil")
		}
		if len(top.Ranked) == 0 || len(top.Ranked) > 5 {
			t.Fatalf("attr %d: topk returned %d results", i, len(top.Ranked))
		}
		for j := 1; j < len(top.Ranked); j++ {
			if top.Ranked[j].Violation < top.Ranked[j-1].Violation {
				t.Fatalf("attr %d: topk not sorted", i)
			}
		}
	}
}

// goldenStats is the QueryStats subset that must be bit-identical
// between a batch entry and the single Query it stands for (everything
// except wall-clock times and the trace).
type goldenStats struct {
	initial, afterSlices, afterSubset, validated, results, slices int
}

func golden(st QueryStats) goldenStats {
	return goldenStats{st.InitialCandidates, st.AfterSlices, st.AfterSubsetCheck,
		st.Validated, st.Results, st.SlicesUsed}
}

func TestQueryTimingsAlwaysPopulated(t *testing.T) {
	ds, x := queryTestIndex(t, 13, 30)
	p := core.DefaultDays(ds.Horizon())
	q := ds.Attr(0)
	for _, o := range []QueryOptions{
		{Mode: ModeForward, Params: p},
		{Mode: ModeReverse, Params: p},
		{Mode: ModeTopK, Params: core.Params{Delta: p.Delta, Weight: p.Weight}, K: 3},
	} {
		res, err := x.Query(context.Background(), q, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Timings.Total <= 0 {
			t.Fatalf("mode %v: Timings.Total not populated: %+v", o.Mode, res.Stats.Timings)
		}
		if res.Stats.Timings.Total != res.Stats.Elapsed {
			t.Fatalf("mode %v: Timings.Total %v != Elapsed %v", o.Mode,
				res.Stats.Timings.Total, res.Stats.Elapsed)
		}
		if res.Stats.Trace != nil {
			t.Fatalf("mode %v: trace recorded without Trace option", o.Mode)
		}
	}
}

// A trace holds one span per phase that ran, in pipeline order: reverse
// search has no subset pre-check, and top-k ends with its rank. A span is
// read off the clock reads of its Timings field, so its Duration is that
// field exactly.
func TestQueryTraceSpans(t *testing.T) {
	ds, x := queryTestIndex(t, 14, 30)
	p := core.DefaultDays(ds.Horizon())
	for _, c := range []struct {
		o    QueryOptions
		want []string
	}{
		{QueryOptions{Mode: ModeForward, Params: p}, []string{phaseMTPrune, phaseSlicePrune, phaseSubsetCheck, phaseValidate}},
		{QueryOptions{Mode: ModeReverse, Params: p}, []string{phaseMTPrune, phaseSlicePrune, phaseValidate}},
		{QueryOptions{Mode: ModeTopK, Params: core.Params{Delta: p.Delta, Weight: p.Weight}, K: 3},
			[]string{phaseMTPrune, phaseSlicePrune, phaseSubsetCheck, phaseValidate, phaseRank}},
	} {
		mode, want := c.o.Mode, c.want
		c.o.Trace = true
		res, err := x.Query(context.Background(), ds.Attr(0), c.o)
		if err != nil {
			t.Fatal(err)
		}
		tm := res.Stats.Timings
		fields := map[string]time.Duration{phaseMTPrune: tm.MTPrune, phaseSlicePrune: tm.SlicePrune,
			phaseSubsetCheck: tm.SubsetCheck, phaseValidate: tm.Validate, phaseRank: tm.Rank}
		if len(res.Stats.Trace) != len(want) {
			t.Fatalf("%v: trace spans: %v", mode, res.Stats.Trace)
		}
		for i, sp := range res.Stats.Trace {
			if sp.Name != want[i] {
				t.Fatalf("%v: span %d: %q, want %q", mode, i, sp.Name, want[i])
			}
			if sp.End < sp.Start {
				t.Fatalf("%v: span %q ends before it starts: %+v", mode, sp.Name, sp)
			}
			if i > 0 && sp.Start < res.Stats.Trace[i-1].End {
				t.Fatalf("%v: span %q overlaps predecessor", mode, sp.Name)
			}
			if sp.Duration() != fields[sp.Name] {
				t.Fatalf("%v: span %q lasts %v, its Timings field %v", mode, sp.Name, sp.Duration(), fields[sp.Name])
			}
		}
	}
}

func TestQueryRejectsBadOptions(t *testing.T) {
	ds, x := queryTestIndex(t, 15, 10)
	p := core.DefaultDays(ds.Horizon())
	q := ds.Attr(0)
	cases := []QueryOptions{
		{Mode: Mode(99), Params: p},
		{Mode: Mode(-1), Params: p},
		{Mode: ModeTopK, Params: p, K: 0},
		{Mode: ModeTopK, Params: p, K: -3},
	}
	for _, o := range cases {
		if _, err := x.Query(context.Background(), q, o); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("options %+v: err %v, want ErrInvalidOptions", o, err)
		}
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeForward: "forward", ModeReverse: "reverse", ModeTopK: "topk", Mode(7): "Mode(7)",
	} {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}
