package router

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/shard"
	"tind/internal/timeline"
)

// This file is the failure-path drill suite of the one scatter-gather,
// run from one table against both transports: the in-process
// ShardedIndex and a Router over live shard servers. Every drill installs
// shard.FaultLeg on the tier's Coordinator and asserts the same contract
// — root cause over collateral cancellations, siblings interrupted within
// the injected delay, honest per-leg attribution, partial vs all-down vs
// fatal — so a divergence between the tiers is a test failure, not a
// code-review finding. (It replaces the in-process-only faults_test.go
// of internal/shard; the Router's behaviour against genuinely dead
// servers stays pinned in degrade_test.go.)

var (
	errInjected = errors.New("injected shard fault")
	errDown     = fmt.Errorf("%w: injected outage", shard.ErrLegUnavailable)
)

// drillTier is one deployment under drill, reduced to what both share.
type drillTier struct {
	co     *shard.Coordinator
	faults []*shard.FaultLeg
	ds     *history.Dataset
	opt    shard.Options
	p      core.Params
}

func (d drillTier) forward() index.QueryOptions {
	return index.QueryOptions{Mode: index.ModeForward, Params: d.p}
}

func (d drillTier) batch() []index.BatchQuery {
	return []index.BatchQuery{
		{ByID: true, ID: 0, Options: d.forward()},
		{ByID: true, ID: 2, Options: index.QueryOptions{Mode: index.ModeReverse, Params: d.p}},
	}
}

var drills = []struct {
	name   string
	shards int
	run    func(t *testing.T, d drillTier)
}{
	{"query: fatal root cause wins and interrupts the slow sibling", 2, func(t *testing.T, d drillTier) {
		const injected = 3 * time.Second
		d.faults[1].SetDelay(injected)
		d.faults[0].SetError(errInjected)
		start := time.Now()
		_, err := d.co.Query(context.Background(), d.ds.Attr(0), d.forward())
		expectFatal(t, err, time.Since(start), injected)
	}},
	{"batch: fatal root cause wins and interrupts the slow sibling", 2, func(t *testing.T, d drillTier) {
		const injected = 3 * time.Second
		d.faults[1].SetDelay(injected)
		d.faults[0].SetError(errInjected)
		start := time.Now()
		_, err := d.co.QueryBatch(context.Background(), d.batch(), index.BatchOptions{})
		expectFatal(t, err, time.Since(start), injected)
	}},
	{"all-pairs: reports the root cause and does not hang", 3, func(t *testing.T, d drillTier) {
		d.faults[2].SetError(errInjected)
		_, err := d.co.AllPairsContext(context.Background(), d.p, 4)
		if !errors.Is(err, errInjected) {
			t.Fatalf("all-pairs returned %v, want the injected root cause", err)
		}
	}},
	{"query: the failed leg is marked in PerShard, the healthy ones are not", 3, func(t *testing.T, d drillTier) {
		d.faults[1].SetError(errInjected)
		res, err := d.co.Query(context.Background(), d.ds.Attr(0), d.forward())
		if err == nil {
			t.Fatal("query with a faulted shard returned nil error")
		}
		if len(res.Stats.PerShard) != 3 {
			t.Fatalf("PerShard has %d entries, want 3", len(res.Stats.PerShard))
		}
		if leg := res.Stats.PerShard[1]; !leg.Failed() || !strings.Contains(leg.Err, errInjected.Error()) {
			t.Fatalf("faulted leg Err = %q, want it to carry %q — unmarked it is indistinguishable from a fast empty leg", leg.Err, errInjected)
		}
		// Healthy legs stay unmarked; induced cancellations (if a sibling
		// was mid-flight when the fault fired) are marked as such.
		for _, s := range []int{0, 2} {
			if e := res.Stats.PerShard[s].Err; e != "" && !strings.Contains(e, index.ErrCanceled.Error()) {
				t.Fatalf("healthy shard %d marked with unexpected error %q", s, e)
			}
		}
		d.faults[1].SetError(nil)
		res, err = d.co.Query(context.Background(), d.ds.Attr(0), d.forward())
		if err != nil {
			t.Fatalf("query after clearing the fault: %v", err)
		}
		for _, leg := range res.Stats.PerShard {
			if leg.Failed() {
				t.Fatalf("leg %d marked failed (%q) on a clean scatter", leg.Shard, leg.Err)
			}
		}
	}},
	{"batch: every entry marks the failed leg", 2, func(t *testing.T, d drillTier) {
		d.faults[0].SetError(errInjected)
		results, err := d.co.QueryBatch(context.Background(), d.batch(), index.BatchOptions{})
		if err == nil {
			t.Fatal("batch with a faulted shard returned nil error")
		}
		for i, res := range results {
			if len(res.Stats.PerShard) != 2 || !res.Stats.PerShard[0].Failed() {
				t.Fatalf("entry %d: faulted leg unmarked in %+v", i, res.Stats.PerShard)
			}
		}
	}},
	{"unavailable leg: partial result over the healthy legs, siblings keep running", 3, func(t *testing.T, d drillTier) {
		ctx := context.Background()
		full, err := d.co.Query(ctx, d.ds.Attr(0), d.forward())
		if err != nil {
			t.Fatal(err)
		}
		const dead, slow, delay = 1, 2, 40 * time.Millisecond
		d.faults[dead].SetError(errDown)
		d.faults[slow].SetDelay(delay)
		res, err := d.co.Query(ctx, d.ds.Attr(0), d.forward())
		if !errors.Is(err, index.ErrPartialResult) {
			t.Fatalf("query with an unavailable leg returned %v, want ErrPartialResult", err)
		}
		for s, leg := range res.Stats.PerShard {
			if (s == dead) != leg.Failed() {
				t.Fatalf("leg %d Failed()=%v (%q) with only leg %d unavailable — an unavailable leg must not cancel its siblings",
					s, leg.Failed(), leg.Err, dead)
			}
		}
		if got := res.Stats.PerShard[slow].Elapsed; got < delay {
			t.Fatalf("slow sibling ran %v, want the full injected %v", got, delay)
		}
		// Exactly the healthy shards' contribution: nothing more missing,
		// nothing bogus added.
		var want []history.AttrID
		for _, id := range full.IDs {
			if history.ShardOf(id, d.opt.Seed, d.opt.Shards) != dead {
				want = append(want, id)
			}
		}
		if fmt.Sprint(res.IDs) != fmt.Sprint(want) {
			t.Fatalf("partial IDs %v, want healthy-shard subset %v of full %v", res.IDs, want, full.IDs)
		}
		bres, err := d.co.QueryBatch(ctx, d.batch(), index.BatchOptions{})
		if !errors.Is(err, index.ErrPartialResult) {
			t.Fatalf("batch with an unavailable leg returned %v, want ErrPartialResult", err)
		}
		for i, res := range bres {
			if !res.Stats.PerShard[dead].Failed() {
				t.Fatalf("batch entry %d: unavailable leg unmarked", i)
			}
		}
		// All-pairs discovery is all-or-nothing: no partial complete set.
		if _, err := d.co.AllPairsContext(ctx, d.p, 4); !errors.Is(err, shard.ErrLegUnavailable) || errors.Is(err, index.ErrPartialResult) {
			t.Fatalf("all-pairs with an unavailable leg returned %v, want a plain failure naming it", err)
		}
	}},
	{"every leg unavailable: a plain failure, never partial", 2, func(t *testing.T, d drillTier) {
		for _, f := range d.faults {
			f.SetError(errDown)
		}
		if _, err := d.co.Query(context.Background(), d.ds.Attr(0), d.forward()); err == nil || errors.Is(err, index.ErrPartialResult) {
			t.Fatalf("query with all legs unavailable returned %v, want a plain failure", err)
		}
	}},
	{"fatal beside unavailable: the fatal error wins, never partial", 3, func(t *testing.T, d drillTier) {
		d.faults[0].SetError(errDown)
		d.faults[1].SetError(errInjected)
		_, err := d.co.Query(context.Background(), d.ds.Attr(0), d.forward())
		if !errors.Is(err, errInjected) || errors.Is(err, index.ErrPartialResult) {
			t.Fatalf("query returned %v, want the fatal root cause and no partial", err)
		}
	}},
	{"caller cancellation: typed, never partial", 2, func(t *testing.T, d drillTier) {
		d.faults[0].SetError(errDown)
		d.faults[1].SetDelay(3 * time.Second)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err := d.co.Query(ctx, d.ds.Attr(0), d.forward())
		if !errors.Is(err, index.ErrDeadlineExceeded) || errors.Is(err, index.ErrPartialResult) {
			t.Fatalf("query past its deadline returned %v, want ErrDeadlineExceeded and no partial", err)
		}
		if wall := time.Since(start); wall > time.Second {
			t.Fatalf("query took %v to notice a 30ms deadline", wall)
		}
	}},
}

// expectFatal asserts the outcome of a scatter with one fatally faulted
// leg and one leg delayed by injected.
func expectFatal(t *testing.T, err error, wall, injected time.Duration) {
	t.Helper()
	if !errors.Is(err, errInjected) {
		t.Fatalf("returned %v, want the injected root cause (not a sibling's induced cancellation)", err)
	}
	if errors.Is(err, index.ErrPartialResult) {
		t.Fatalf("fatal leg degraded into a partial result: %v", err)
	}
	if wall > injected/4 {
		t.Fatalf("scatter took %v with a %v injected sibling delay: the first error did not cancel the delayed leg", wall, injected)
	}
}

func TestFaultDrillsOnBothTiers(t *testing.T) {
	const horizon = timeline.Time(120)
	ds := genDataset(t, 11, 24, horizon)
	tiers := map[string]func(t *testing.T, opt shard.Options) *shard.Coordinator{
		"in-process": func(t *testing.T, opt shard.Options) *shard.Coordinator {
			sx, err := shard.Build(ds, opt)
			if err != nil {
				t.Fatal(err)
			}
			return sx.Coordinator
		},
		"router": func(t *testing.T, opt shard.Options) *shard.Coordinator {
			return startCluster(t, ds, opt).router.Coordinator
		},
	}
	for _, drill := range drills {
		for tier, build := range tiers {
			drill, build := drill, build
			t.Run(drill.name+"/"+tier, func(t *testing.T) {
				t.Parallel()
				opt := testOptions(horizon, drill.shards)
				co := build(t, opt)
				drill.run(t, drillTier{
					co: co, faults: shard.InjectFaults(co),
					ds: ds, opt: opt, p: core.DefaultDays(horizon),
				})
			})
		}
	}
}
