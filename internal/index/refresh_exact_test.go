package index_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/oracle"
	"tind/internal/shard"
	"tind/internal/timeline"
	"tind/internal/values"
)

// endsDataset builds n attributes whose observation ends cover every day
// of (horizon/4, horizon] in turn, so that for any slice some attribute
// ends just before, at and just after the end of its I^δ.
func endsDataset(r *rand.Rand, n int, horizon timeline.Time) *history.Dataset {
	ds := history.NewDataset(horizon)
	span := horizon - horizon/4
	for i := 0; i < n; i++ {
		end := horizon/4 + 1 + timeline.Time(i)%span
		var vs []history.Version
		for t := timeline.Time(r.Intn(int(end) / 2)); t < end; t += timeline.Time(1 + r.Intn(8)) {
			v := randValues(r)
			if len(vs) > 0 && vs[len(vs)-1].Values.Equal(v) {
				continue
			}
			vs = append(vs, history.Version{Start: t, Values: v})
		}
		h, err := history.New(history.Meta{Page: fmt.Sprint("p", i)}, vs, end)
		if err != nil {
			panic(err)
		}
		if _, err := ds.Add(h); err != nil {
			panic(err)
		}
	}
	return ds
}

func randValues(r *rand.Rand) values.Set {
	ids := make([]values.Value, 1+r.Intn(4))
	for i := range ids {
		ids[i] = values.Value(r.Intn(12))
	}
	return values.NewSet(ids...)
}

// evolve extends the horizon and appends to attributes at their own ends:
// dead attributes resume, some after a gap their last version fills; some
// gain a one-day version before a longer one; some only extend their
// observation; the rest stay as they are.
func evolve(r *rand.Rand, ds *history.Dataset) ([]history.AttrID, timeline.Time, error) {
	newHorizon := ds.Horizon() + timeline.Time(5+r.Intn(16))
	if err := ds.ExtendHorizon(newHorizon); err != nil {
		return nil, 0, err
	}
	var changed []history.AttrID
	for _, h := range ds.Attrs() {
		end := h.ObservedUntil()
		var err error
		switch r.Intn(5) {
		case 0: // resume, possibly after a gap
			err = h.Append(end+timeline.Time(r.Intn(int(newHorizon-end))), randValues(r), newHorizon)
		case 1: // a short version, then a longer one that may die again
			if err = h.Append(end, randValues(r), end+1); err == nil && end+1 < newHorizon {
				err = h.Append(end+1, randValues(r), end+2+timeline.Time(r.Intn(int(newHorizon-end-1))))
			}
		case 2:
			err = h.ExtendObservation(end + timeline.Time(r.Intn(int(newHorizon-end)+1)))
		default:
			continue
		}
		if err != nil {
			return nil, 0, err
		}
		changed = append(changed, h.ID())
	}
	return changed, newHorizon, nil
}

// TestRefreshKeepsSlicesExact pins the invariant Refresh maintains: after
// every refresh, each slice matrix of the monolith and of every shard is
// bit-equal to a fresh fill of the same intervals over the current
// histories, and each minimum violation weight is value-equal — also
// after a Reslice has re-selected the intervals. The prefix index keeps
// the same promise: every non-empty version indexed exactly once under
// one of its values, and each maximum violation value-equal to a fresh
// one (CheckPrefix).
func TestRefreshKeepsSlicesExact(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			horizon := timeline.Time(50 + r.Intn(30))
			ds := endsDataset(r, 2*int(horizon), horizon)
			opt := index.Options{
				Bloom:    bloom.Params{M: 128, K: 2},
				Slices:   3 + r.Intn(6),
				Strategy: index.SliceStrategy(seed % 2),
				Params: core.Params{Epsilon: float64(2 + r.Intn(2)), Delta: timeline.Time(1 + r.Intn(3)),
					Weight: timeline.Uniform(horizon)},
				Reverse: seed%3 != 0,
				Seed:    seed,
			}
			mono, err := index.Build(ds, opt)
			if err != nil {
				t.Fatal(err)
			}
			const shards = 3
			sx, err := shard.Build(ds, shard.Options{Shards: shards, Seed: seed, Index: shard.PartitionOptions(opt, shards)})
			if err != nil {
				t.Fatal(err)
			}
			check := func(when string) {
				t.Helper()
				for s := -1; s < shards; s++ {
					x, who := mono, "monolith"
					if s >= 0 {
						x, who = sx.Shard(s), fmt.Sprint("shard ", s)
					}
					if err := x.CheckSlices(); err != nil {
						t.Fatalf("%s: %s: %v", when, who, err)
					}
					if err := x.CheckPrefix(); err != nil {
						t.Fatalf("%s: %s: %v", when, who, err)
					}
				}
			}
			check("build")
			for round := 0; round < 4; round++ {
				changed, newHorizon, err := evolve(r, ds)
				if err != nil {
					t.Fatal(err)
				}
				if err := mono.Refresh(changed, newHorizon); err != nil {
					t.Fatal(err)
				}
				if err := sx.Refresh(changed, newHorizon); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprint("refresh ", round))
				if round == 1 {
					if _, err := mono.Reslice(); err != nil {
						t.Fatal(err)
					}
					check("reslice")
				}
			}
		})
	}
}

// TestRefreshShortVersionReverse is the reverse-search shape a stale
// minimum violation weight gets wrong. A dies inside a slice's I^δ after
// four days there, so the slice charges A at least 4 for any violation.
// A then resumes with a one-day version holding a value Q never has: A's
// window set now violates in the slice, but only by that one day, within
// ε = 2. A stale weight of 4 would prune A; the refilled weight is 1.
func TestRefreshShortVersionReverse(t *testing.T) {
	const (
		horizon    = timeline.Time(40)
		newHorizon = timeline.Time(50)
	)
	opt := func(seed int64) index.Options {
		return index.Options{
			Bloom:   bloom.Params{M: 256, K: 2},
			Slices:  1,
			Params:  core.Params{Epsilon: 2, Delta: 2, Weight: timeline.Uniform(horizon)},
			Reverse: true,
			Seed:    seed,
		}
	}
	mk := func(ds *history.Dataset, page string, vals values.Set, end timeline.Time) *history.History {
		h, err := history.New(history.Meta{Page: page}, []history.Version{{Start: 0, Values: vals}}, end)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ds.Add(h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	// Random slice selection depends only on the horizon and the options,
	// so a probe over Q alone finds a seed whose slice [s, s+3) has room
	// for A: I^δ = [s-2, s+5) inside the horizon.
	var seed int64
	var s timeline.Time
	for seed = 1; ; seed++ {
		probe := history.NewDataset(horizon)
		mk(probe, "q", values.NewSet(1, 2, 3), horizon)
		x, err := index.Build(probe, opt(seed))
		if err != nil {
			t.Fatal(err)
		}
		if spans := x.Stats().SliceSpans; len(spans) == 1 && spans[0].Start >= 2 && spans[0].End+2 < horizon {
			s = spans[0].Start
			break
		}
	}

	ds := history.NewDataset(horizon)
	q := mk(ds, "q", values.NewSet(1, 2, 3), horizon)
	a := mk(ds, "a", values.NewSet(1), s+2)
	x, err := index.Build(ds, opt(seed))
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Stats().SliceSpans[0].Start; got != s {
		t.Fatalf("slice starts at %d, the probe at %d", got, s)
	}

	if err := ds.ExtendHorizon(newHorizon); err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		a.Append(s+2, values.NewSet(99), s+3),
		a.Append(s+3, values.NewSet(1), newHorizon),
		q.ExtendObservation(newHorizon),
		x.Refresh([]history.AttrID{q.ID(), a.ID()}, newHorizon),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	p := core.Params{Epsilon: 2, Delta: 2, Weight: timeline.Uniform(newHorizon)}
	if !oracle.Holds(a, q, p) {
		t.Fatal("setup: the oracle must find A ⊆ Q")
	}
	res, err := x.Query(context.Background(), q, index.QueryOptions{Mode: index.ModeReverse, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.IDs, []history.AttrID{a.ID()}) {
		t.Fatalf("reverse(Q) = %v, the oracle says [%d]", res.IDs, a.ID())
	}
}
