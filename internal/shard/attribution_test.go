package shard

import (
	"context"
	"testing"
	"time"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/timeline"
)

func buildAttributionIndex(t *testing.T, shards int) (*ShardedIndex, *history.Dataset, core.Params) {
	t.Helper()
	const horizon = timeline.Time(120)
	ds := genDataset(t, 451, 24, horizon)
	w := timeline.Uniform(horizon)
	total := w.Sum(timeline.NewInterval(0, horizon))
	p := core.Params{Epsilon: 0.04 * total, Delta: 2, Weight: w}
	sx, err := Build(ds, Options{
		Shards: shards,
		Seed:   7,
		Index: index.Options{
			Bloom:  bloom.Params{M: 256, K: 2},
			Slices: 8,
			Params: p,
			Seed:   451,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sx, ds, p
}

// TestQueryPerShardAttribution asserts that a sharded query reports one
// PerShard entry per scatter leg, with leg times and a funnel that sums
// to the merged totals — for top-k too, where a shard's results are the
// entries it contributed to the merged ranking.
func TestQueryPerShardAttribution(t *testing.T) {
	sx, ds, p := buildAttributionIndex(t, 4)
	for _, o := range []index.QueryOptions{
		{Mode: index.ModeForward, Params: p},
		{Mode: index.ModeTopK, Params: core.Params{Delta: p.Delta, Weight: p.Weight}, K: 3},
	} {
		res, err := sx.Query(context.Background(), ds.Attr(0), o)
		if err != nil {
			t.Fatal(err)
		}
		ps := res.Stats.PerShard
		if len(ps) != 4 {
			t.Fatalf("%v: PerShard = %d entries, want 4", o.Mode, len(ps))
		}
		var cand, validated, results int
		for s, st := range ps {
			if st.Shard != s {
				t.Errorf("%v: PerShard[%d].Shard = %d", o.Mode, s, st.Shard)
			}
			if st.Elapsed <= 0 {
				t.Errorf("%v: PerShard[%d].Elapsed = %v, want > 0", o.Mode, s, st.Elapsed)
			}
			cand += st.InitialCandidates
			validated += st.Validated
			results += st.Results
		}
		if cand != res.Stats.InitialCandidates || validated != res.Stats.Validated || results != res.Stats.Results {
			t.Errorf("%v: PerShard funnel sums (%d cand, %d validated, %d results) != totals (%d, %d, %d)",
				o.Mode, cand, validated, results, res.Stats.InitialCandidates, res.Stats.Validated, res.Stats.Results)
		}
	}
}

// TestShardDelayIdentifiesStraggler injects latency into one shard and
// asserts both the single-query and batched scatter paths attribute it.
func TestShardDelayIdentifiesStraggler(t *testing.T) {
	sx, ds, p := buildAttributionIndex(t, 4)
	const straggler = 2
	const delay = 30 * time.Millisecond
	InjectFaults(sx.Coordinator)[straggler].SetDelay(delay)

	check := func(t *testing.T, ps []index.ShardStat, elapsed time.Duration) {
		t.Helper()
		if len(ps) != 4 {
			t.Fatalf("PerShard = %d entries, want 4", len(ps))
		}
		slowest := 0
		for s := range ps {
			if ps[s].Elapsed > ps[slowest].Elapsed {
				slowest = s
			}
		}
		if slowest != straggler {
			t.Errorf("slowest leg = shard %d (%v), want injected straggler %d (legs %v)",
				slowest, ps[slowest].Elapsed, straggler, ps)
		}
		if ps[straggler].Elapsed < delay {
			t.Errorf("straggler leg = %v, want >= injected %v", ps[straggler].Elapsed, delay)
		}
		if elapsed < delay {
			t.Errorf("scatter-gather wall %v < injected delay %v", elapsed, delay)
		}
	}

	res, err := sx.Query(context.Background(), ds.Attr(1), index.QueryOptions{Mode: index.ModeForward, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	check(t, res.Stats.PerShard, res.Stats.Elapsed)

	batch := []index.BatchQuery{
		{ByID: true, ID: 0, Options: index.QueryOptions{Mode: index.ModeForward, Params: p}},
		{ByID: true, ID: 1, Options: index.QueryOptions{Mode: index.ModeForward, Params: p}},
	}
	bres, err := sx.QueryBatch(context.Background(), batch, index.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range bres {
		check(t, bres[i].Stats.PerShard, bres[i].Stats.Elapsed)
	}
}

// TestFaultLegDelayBounds exercises the hook's defensive edge: a
// negative delay clears the injection.
func TestFaultLegDelayBounds(t *testing.T) {
	sx, ds, p := buildAttributionIndex(t, 2)
	leg := InjectFaults(sx.Coordinator)[0]
	leg.SetDelay(time.Second)
	leg.SetDelay(-time.Second) // clears
	start := time.Now()
	if _, err := sx.Query(context.Background(), ds.Attr(0), index.QueryOptions{Mode: index.ModeForward, Params: p}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("query took %v; a cleared delay must not inject", elapsed)
	}
}
