package shard

import (
	"context"
	"fmt"
	"testing"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/timeline"
)

// queryRegime is one position of the query's (ε, δ, w) against the
// index's build parameters, with the pruning structures that may serve a
// reverse query there: M_R needs ε ≤ index ε under the index weight, the
// slices need δ ≤ index δ under the index weight (forward slices take any
// weight). Outside M_R's regime the weighted prefix index generates the
// reverse candidates.
type queryRegime struct {
	name       string
	p          core.Params
	mR, slices bool // reverse: structure in use
	fwdSlices  bool
}

// TestShardQueryRegimesMatchOracle runs every query regime through every
// way to run a query — Index.Query forward and reverse, Index.QueryBatch,
// and the scatter-gather Coordinator — against the oracle, and asserts on
// the work each regime does: a reverse query never runs the subset
// pre-check, consults no slice and no M_R where they are unsound, and
// outside M_R's regime starts, summed over the regime's queries, from
// fewer than |D|−1 candidates each — the prefix index prunes there. The
// non-index-weight regime is the one that used to lose answers: M_R was
// consulted under a weight it was not built for.
func TestShardQueryRegimesMatchOracle(t *testing.T) {
	const horizon = timeline.Time(120)
	ds := genDataset(t, 1, 36, horizon)
	n := ds.Len()
	w := timeline.Uniform(horizon)
	idxP := core.Params{Epsilon: 3, Delta: 2, Weight: w}
	decay, err := timeline.NewExponentialDecay(horizon, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	monoOpt := index.Options{
		Bloom:   bloom.Params{M: 512, K: 2},
		Slices:  6,
		Params:  idxP,
		Reverse: true,
		Seed:    5,
	}
	mono, sx := buildPair(t, ds, monoOpt, 3, 11)
	ctx := context.Background()

	regimes := []queryRegime{
		{"native", idxP, true, true, true},
		{"eps-above-index", core.Params{Epsilon: 14.5, Delta: 2, Weight: w}, false, true, true},
		{"delta-above-index", core.Params{Epsilon: 2.5, Delta: 9, Weight: w}, true, false, false},
		{"both-above-index", core.Params{Epsilon: 14.5, Delta: 9, Weight: w}, false, false, false},
		{"constant-weight", core.Params{Epsilon: 3.02, Delta: 2, Weight: timeline.Constant{N: horizon, C: 0.05}}, false, false, true},
		{"decay-weight", core.Params{Epsilon: 1.5, Delta: 2, Weight: decay}, false, false, true},
	}
	for _, rg := range regimes {
		rg := rg
		t.Run(rg.name, func(t *testing.T) {
			t.Parallel()
			tol := diffTol(rg.p.Weight)
			vio := vioMatrix(ds, rg.p)
			column := func(qi int) []float64 {
				c := make([]float64, n)
				for a := range c {
					c[a] = vio[a][qi]
				}
				return c
			}
			fwdO := index.QueryOptions{Mode: index.ModeForward, Params: rg.p}
			revO := index.QueryOptions{Mode: index.ModeReverse, Params: rg.p}
			batch := make([]index.BatchQuery, 0, 2*n)
			for qi := 0; qi < n; qi++ {
				id := history.AttrID(qi)
				batch = append(batch, index.BatchQuery{ID: id, ByID: true, Options: fwdO},
					index.BatchQuery{ID: id, ByID: true, Options: revO})
			}
			batched, err := mono.QueryBatch(ctx, batch, index.BatchOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			results, revCand, revAll := 0, 0, 0
			for qi := 0; qi < n; qi++ {
				self := history.AttrID(qi)
				q := ds.Attr(self)
				for _, dir := range []struct {
					o   index.QueryOptions
					vio []float64
					b   index.Result
				}{{fwdO, vio[qi], batched[2*qi]}, {revO, column(qi), batched[2*qi+1]}} {
					label := fmt.Sprintf("%v q=%d", dir.o.Mode, qi)
					res, err := mono.Query(ctx, q, dir.o)
					if err != nil {
						t.Fatal(err)
					}
					checkIDSet(t, "Query "+label, res.IDs, self, dir.vio, rg.p.Epsilon, tol)
					if fmt.Sprint(dir.b.IDs) != fmt.Sprint(res.IDs) {
						t.Fatalf("QueryBatch %s: %v, Query %v", label, dir.b.IDs, res.IDs)
					}
					sres, err := sx.Query(ctx, q, dir.o)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(sres.IDs) != fmt.Sprint(res.IDs) {
						t.Fatalf("Coordinator %s: %v, Query %v", label, sres.IDs, res.IDs)
					}
					results += len(res.IDs)
					for who, st := range map[string]index.QueryStats{
						"Query": res.Stats, "QueryBatch": dir.b.Stats, "Coordinator": sres.Stats} {
						checkRegimeWork(t, who+" "+label, rg, dir.o.Mode, st, n, who == "Coordinator")
						if dir.o.Mode == index.ModeReverse {
							revCand += st.InitialCandidates
							revAll += n - 1
						}
					}
				}
			}
			if results == 0 {
				t.Fatal("no query of the regime has an answer: the differential proves nothing")
			}
			if !rg.mR && revCand >= revAll {
				t.Fatalf("reverse queries outside M_R's regime kept %d of %d candidates: the prefix index pruned nothing",
					revCand, revAll)
			}
		})
	}
}

// checkRegimeWork asserts the funnel and phase accounting a regime
// promises. A scattered query's counters are sums over the legs, of which
// only the owner excludes the query attribute; slice counts differ per
// shard, so only "none" is asserted there.
func checkRegimeWork(t *testing.T, label string, rg queryRegime, mode index.Mode, st index.QueryStats, n int, scattered bool) {
	t.Helper()
	if st.AfterSlices > st.InitialCandidates || st.AfterSubsetCheck > st.AfterSlices ||
		st.Validated != st.AfterSubsetCheck || st.Results > st.Validated {
		t.Fatalf("%s: funnel not monotone: %+v", label, st)
	}
	if mode == index.ModeForward {
		if !rg.fwdSlices && st.SlicesUsed != 0 {
			t.Fatalf("%s: %d slices consulted above the index δ", label, st.SlicesUsed)
		}
		return
	}
	if st.Timings.SubsetCheck != 0 || st.AfterSubsetCheck != st.AfterSlices {
		t.Fatalf("%s: reverse ran a subset pre-check: %v, funnel %d → %d", label,
			st.Timings.SubsetCheck, st.AfterSlices, st.AfterSubsetCheck)
	}
	if !rg.slices && st.SlicesUsed != 0 {
		t.Fatalf("%s: %d slices consulted where they are unsound", label, st.SlicesUsed)
	}
	if rg.slices && !scattered && st.InitialCandidates > 0 && st.SlicesUsed == 0 {
		t.Fatalf("%s: no slice consulted in a regime where slices prune", label)
	}
	if st.InitialCandidates > n-1 {
		t.Fatalf("%s: %d initial candidates of %d attributes besides the query", label,
			st.InitialCandidates, n-1)
	}
}
