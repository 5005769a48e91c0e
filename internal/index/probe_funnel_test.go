package index

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/oracle"
	"tind/internal/timeline"
)

type pinnedFunnel struct {
	q                                        history.AttrID
	initial, slices, subset, validated, hits int
	ids                                      uint64
}

func hashIDs(ids []history.AttrID) uint64 {
	h := fnv.New64a()
	for _, a := range ids {
		fmt.Fprintf(h, "%d;", a)
	}
	return h.Sum64()
}

func (w pinnedFunnel) check(t *testing.T, what string, res Result) {
	t.Helper()
	st := res.Stats
	if st.InitialCandidates != w.initial || st.AfterSlices != w.slices || st.AfterSubsetCheck != w.subset ||
		st.Validated != w.validated || st.Results != w.hits || hashIDs(res.IDs) != w.ids {
		t.Errorf("%s query %d: funnel %d/%d/%d/%d, %d results, ids %#x; pinned %+v", what, w.q,
			st.InitialCandidates, st.AfterSlices, st.AfterSubsetCheck, st.Validated, st.Results, hashIDs(res.IDs), w)
	}
}

// The matrix probes decide per candidate set whether to work row by row or
// column by column; neither may change what a query finds. The funnels and
// id lists below were produced by the index that only ever probed row by
// row (the parent of the commit that introduced the per-column finish), on
// a corpus wide enough for phase 1 to start dense and the slice phase to
// start sparse. The same queries through QueryBatch must agree entry for
// entry, each having probed for itself, and after a Refresh that grows
// columns in place — bit counts maintained, refreshed slice columns equal
// to a fresh fill — the answers must equal the naive semantics. The
// after-slice counts of five rows (forward 161, reverse 7, 14, 126 and
// 154) were re-pinned when the default went from 16 slices at 4 096 bits
// to 4 slices folded to their fill (targetFill); every result count and
// id hash is still the row-by-row index's.
func TestProbeFunnelPinned(t *testing.T) {
	c, err := datagen.Generate(datagen.Config{Seed: 42, Attributes: 2000, Horizon: 800})
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	opt := DefaultOptions(ds.Horizon()).ForReverse()
	opt.Seed = 3
	x := buildTestIndex(t, ds, opt)
	pinned := map[Mode][]pinnedFunnel{
		ModeForward: {
			{0, 1, 1, 1, 1, 1, 0x7f88d07b4ba0025},
			{7, 0, 0, 0, 0, 0, 0xcbf29ce484222325},
			{14, 0, 0, 0, 0, 0, 0xcbf29ce484222325},
			{21, 0, 0, 0, 0, 0, 0xcbf29ce484222325},
			{28, 3, 2, 2, 2, 2, 0xbabcdbda95adc082},
			{35, 0, 0, 0, 0, 0, 0xcbf29ce484222325},
			{42, 3, 2, 2, 2, 1, 0x6037b51827875126},
			{56, 2, 2, 2, 2, 2, 0xf786eec1feaf3a24},
			{63, 9, 4, 4, 4, 4, 0x387c6dd0e0995d93},
			{70, 3, 1, 1, 1, 1, 0x22c31618047d1841},
			{91, 16, 2, 2, 2, 2, 0x8ab5a8ff0f820bc},
			{112, 4, 1, 1, 1, 1, 0xd85e4f0f89150fc},
			{126, 5, 1, 1, 1, 1, 0x1fc036f1032618c2},
			{133, 3, 1, 1, 1, 1, 0x1fc036f1032618c2},
			{161, 38, 7, 7, 7, 3, 0x52157d0da987dc02},
			{189, 22, 2, 2, 2, 2, 0xf16eba1fa0b4977c},
			{196, 2, 2, 2, 2, 2, 0x2921aab6646c4a4a},
			{203, 3, 2, 2, 2, 2, 0xbc42e17a5b10e258},
			{231, 2, 2, 2, 2, 2, 0xeb2fcb0bac83b23a},
			{238, 13, 2, 2, 2, 2, 0xeb2fcb0bac83b23a},
			{245, 11, 2, 2, 2, 2, 0xeb2fcb0bac83b23a},
			{294, 5, 1, 1, 1, 1, 0xfea4240b272779d6},
			{315, 3, 2, 2, 2, 2, 0x300458680d6db440},
			{357, 4, 2, 2, 2, 2, 0x91606a4f8a6f55e0},
		},
		ModeReverse: {
			{0, 13, 13, 13, 13, 13, 0x5253456ae2378ee4},
			{7, 2, 1, 1, 1, 0, 0xcbf29ce484222325},
			{14, 14, 1, 1, 1, 0, 0xcbf29ce484222325},
			{21, 0, 0, 0, 0, 0, 0xcbf29ce484222325},
			{28, 0, 0, 0, 0, 0, 0xcbf29ce484222325},
			{35, 2, 0, 0, 0, 0, 0xcbf29ce484222325},
			{77, 4, 1, 1, 1, 0, 0xcbf29ce484222325},
			{84, 9, 0, 0, 0, 0, 0xcbf29ce484222325},
			{98, 3, 0, 0, 0, 0, 0xcbf29ce484222325},
			{112, 2, 0, 0, 0, 0, 0xcbf29ce484222325},
			{119, 7, 0, 0, 0, 0, 0xcbf29ce484222325},
			{126, 3, 2, 2, 2, 1, 0x68f7e334bb8fdd9e},
			{154, 5, 1, 1, 1, 0, 0xcbf29ce484222325},
			{175, 9, 9, 9, 9, 8, 0x8a2ac9badfb78453},
			{182, 3, 0, 0, 0, 0, 0xcbf29ce484222325},
			{217, 2, 0, 0, 0, 0, 0xcbf29ce484222325},
			{224, 2, 0, 0, 0, 0, 0xcbf29ce484222325},
			{231, 5, 0, 0, 0, 0, 0xcbf29ce484222325},
			{252, 3, 0, 0, 0, 0, 0xcbf29ce484222325},
			{266, 2, 0, 0, 0, 0, 0xcbf29ce484222325},
			{301, 10, 10, 10, 10, 5, 0x260d384ff24f7f0f},
			{350, 11, 11, 11, 11, 11, 0x1003b81cfa4444c1},
			{371, 2, 0, 0, 0, 0, 0xcbf29ce484222325},
			{399, 2, 0, 0, 0, 0, 0xcbf29ce484222325},
		},
	}
	ctx := context.Background()
	var batch []BatchQuery
	var want []pinnedFunnel
	for _, mode := range []Mode{ModeForward, ModeReverse} {
		o := QueryOptions{Mode: mode, Params: opt.Params}
		for _, w := range pinned[mode] {
			res, err := x.Query(ctx, ds.Attr(w.q), o)
			if err != nil {
				t.Fatal(err)
			}
			w.check(t, mode.String(), res)
			batch = append(batch, BatchQuery{ByID: true, ID: w.q, Options: o})
			want = append(want, w)
		}
	}
	for _, workers := range []int{1, 2} {
		results, err := x.QueryBatch(ctx, batch, BatchOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			what := fmt.Sprintf("batch workers=%d entry %d %v", workers, i, batch[i].Options.Mode)
			want[i].check(t, what, res)
			if res.Stats.Timings.MTPrune <= 0 {
				t.Errorf("%s: MTPrune = %v, the entry did not probe for itself", what, res.Stats.Timings.MTPrune)
			}
		}
	}

	// Grow every 5th of the first 400 attributes by the current values of
	// its neighbour and let the rest of them persist: links appear and
	// disappear among exactly the attributes the queries above touch.
	newHorizon := ds.Horizon() + 20
	if err := ds.ExtendHorizon(newHorizon); err != nil {
		t.Fatal(err)
	}
	var changed []history.AttrID
	for id := history.AttrID(0); id < 400; id++ {
		h := ds.Attr(id)
		if h.ObservedUntil() < newHorizon-20 {
			continue // died before the old horizon
		}
		if id%5 == 0 {
			grown := h.At(h.ObservedUntil() - 1).Union(ds.Attr(id + 1).AllValues())
			err = h.Append(h.ObservedUntil()+2, grown, newHorizon)
		} else {
			err = h.ExtendObservation(newHorizon)
		}
		if err != nil {
			t.Fatal(err)
		}
		changed = append(changed, id)
	}
	if err := x.Refresh(changed, newHorizon); err != nil {
		t.Fatal(err)
	}
	if len(changed) < 300 {
		t.Fatalf("refreshed only %d attributes", len(changed))
	}
	if err := x.CheckSlices(); err != nil {
		t.Fatal(err)
	}
	// The oracle walks every timestamp of a pair, so it judges what the
	// refresh could have moved — the first 400 attributes — and every id
	// the index returns beyond them.
	p := opt.Params
	p.Weight = timeline.Uniform(newHorizon)
	for i := 0; i < len(want); i += 3 {
		q := ds.Attr(want[i].q)
		o := batch[i].Options
		o.Params = p
		holds := func(a history.AttrID) bool {
			if o.Mode == ModeReverse {
				return oracle.Holds(ds.Attr(a), q, p)
			}
			return oracle.Holds(q, ds.Attr(a), p)
		}
		res, err := x.Query(ctx, q, o)
		if err != nil {
			t.Fatal(err)
		}
		for a := history.AttrID(0); a < 400; a++ {
			if got := slices.Contains(res.IDs, a); a != q.ID() && got != holds(a) {
				t.Errorf("after refresh, %v query %d: attribute %d reported %v, oracle says %v", o.Mode, q.ID(), a, got, !got)
			}
		}
		for _, a := range res.IDs {
			if a >= 400 && !holds(a) {
				t.Errorf("after refresh, %v query %d: attribute %d reported, oracle refutes it", o.Mode, q.ID(), a)
			}
		}
	}
}
