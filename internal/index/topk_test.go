package index

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"tind/internal/bitmatrix"
	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/timeline"
)

func bruteTopK(ds *history.Dataset, q *history.History, delta timeline.Time,
	w timeline.WeightFunc, k int) []Ranked {
	p := core.Params{Epsilon: 0, Delta: delta, Weight: w}
	var all []Ranked
	for _, a := range ds.Attrs() {
		if a == q {
			continue
		}
		all = append(all, Ranked{ID: a.ID(), Violation: core.ViolationWeight(q, a, p)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Violation != all[j].Violation {
			return all[i].Violation < all[j].Violation
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// topK runs a ModeTopK query and returns its ranking.
func topK(x *Index, q *history.History, delta timeline.Time, w timeline.WeightFunc, k int) ([]Ranked, error) {
	res, err := x.Query(context.Background(), q, QueryOptions{
		Mode: ModeTopK, Params: core.Params{Delta: delta, Weight: w}, K: k,
	})
	return res.Ranked, err
}

func TestTopKMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		horizon := timeline.Time(40 + r.Intn(40))
		ds := randDataset(r, 6+r.Intn(15), horizon)
		idx, err := Build(ds, Options{
			Bloom:  bloom.Params{M: 128, K: 2},
			Slices: r.Intn(4),
			Params: core.Params{Epsilon: 1, Delta: 3, Weight: timeline.Uniform(horizon)},
			Seed:   seed,
		})
		if err != nil {
			return false
		}
		w := timeline.Uniform(horizon)
		k := 1 + r.Intn(5)
		q := ds.Attr(history.AttrID(r.Intn(ds.Len())))
		got, err := topK(idx, q, 2, w, k)
		if err != nil {
			return false
		}
		want := bruteTopK(ds, q, 2, w, k)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			// Violations must match exactly; ids may differ only among
			// equal violations (we use a deterministic tie-break, so they
			// must match too).
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKMoreThanExist(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	ds := randDataset(r, 5, 50)
	idx := buildTestIndex(t, ds, Options{
		Bloom: bloom.Params{M: 128, K: 2}, Slices: 2,
		Params: core.DefaultDays(50), Seed: 1,
	})
	got, err := topK(idx, ds.Attr(0), 3, timeline.Uniform(50), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 { // everything except the query itself
		t.Fatalf("got %d results, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Violation < got[i-1].Violation {
			t.Fatal("ranking not sorted")
		}
	}
}

// weightFamilies returns one function of every weight family over n days.
func weightFamilies(t *testing.T, n timeline.Time) map[string]timeline.WeightFunc {
	exp, err := timeline.NewExponentialDecay(n, 0.97)
	if err != nil {
		t.Fatal(err)
	}
	table := make([]float64, n)
	for i := range table {
		table[i] = float64(i%5) / 4 // includes zero-weight days
	}
	prefix, err := timeline.NewPrefixSum(table)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]timeline.WeightFunc{
		"uniform":  timeline.Uniform(n),
		"relative": timeline.Relative(n),
		"expdecay": exp,
		"linear":   timeline.LinearDecay{N: n, W0: 0.1, W1: 1.9},
		"prefix":   prefix,
	}
}

// A ranking asked for more entries than exist must come back complete —
// |D|−1 entries, every one with its exact weight — under every weight
// family. The scan has no float headroom to lean on: it is complete
// because its budget, ε = +∞, excludes nothing.
func TestTopKCompleteRankingEveryWeight(t *testing.T) {
	c, err := datagen.Generate(datagen.Config{Seed: 42, Attributes: 300, Horizon: 800})
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	x := buildTestIndex(t, ds, DefaultOptions(ds.Horizon()))
	for name, w := range weightFamilies(t, ds.Horizon()) {
		for _, qi := range []history.AttrID{0, 92, 151, 299} {
			q := ds.Attr(qi)
			got, err := topK(x, q, 7, w, ds.Len())
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != ds.Len()-1 {
				t.Fatalf("%s, query %d: complete ranking has %d entries, want %d", name, qi, len(got), ds.Len()-1)
			}
			p := core.Params{Delta: 7, Weight: w}
			for i, r := range got {
				if exact := core.ViolationWeight(q, ds.Attr(r.ID), p); r.Violation != exact {
					t.Fatalf("%s, query %d: entry %d reports %v, exact %v", name, qi, i, r.Violation, exact)
				}
				if i > 0 && (got[i-1].Violation > r.Violation ||
					got[i-1].Violation == r.Violation && got[i-1].ID >= r.ID) {
					t.Fatalf("%s, query %d: entries %d and %d out of (violation, id) order", name, qi, i-1, i)
				}
			}
		}
	}
}

// The funnel of a top-k query and its ranked body are pinned on this
// corpus. Each row is a query attribute, the funnel of its one scan and an
// FNV-64a of the ranked "id:weight-bits;" list.
func TestTopKFunnelAndRankingPinned(t *testing.T) {
	c, err := datagen.Generate(datagen.Config{Seed: 42, Attributes: 300, Horizon: 800})
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	p := core.DefaultDays(ds.Horizon())
	// Both validation branches: a query alone validates on GOMAXPROCS
	// goroutines, an entry of a multi-worker batch on one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	x := buildTestIndex(t, ds, DefaultOptions(ds.Horizon()))
	for _, workers := range []int{1, 4} {
		for _, want := range []struct {
			q                                        history.AttrID
			initial, slices, subset, validated, hits int
			ranked                                   uint64
		}{
			{0, 299, 299, 299, 299, 10, 0xfab81a309144d8bf},
			{23, 299, 299, 299, 299, 10, 0xce3ea517b9ff3058},
			{46, 299, 299, 299, 299, 10, 0xb542c014477ccaaa},
			{69, 299, 299, 299, 299, 10, 0x35b29fca9ecbaa4c},
			{92, 299, 299, 299, 299, 10, 0xf1cb39f01456330b},
			{115, 299, 299, 299, 299, 10, 0xab5f0f2214b38102},
			{138, 299, 299, 299, 299, 10, 0x9d861e81e74db488},
			{161, 299, 299, 299, 299, 10, 0x8d1798875e3b3a8d},
			{184, 299, 299, 299, 299, 10, 0x8ee718853eb58ce0},
			{207, 299, 299, 299, 299, 10, 0x3f2ec7f2737fd9ea},
			{230, 299, 299, 299, 299, 10, 0xafc5cc6b071911ff},
			{253, 299, 299, 299, 299, 10, 0xa8fe855601d7b37b},
			{276, 299, 299, 299, 299, 10, 0x5c4f87e5a645d18b},
			{299, 299, 299, 299, 299, 10, 0x44cf4b42d1b80d25},
		} {
			o := QueryOptions{Mode: ModeTopK, Params: core.Params{Delta: p.Delta, Weight: p.Weight}, K: 10}
			var res Result
			if workers == 1 {
				var batch []Result
				batch, err = x.QueryBatch(context.Background(),
					[]BatchQuery{{ByID: true, ID: want.q, Options: o}, {ByID: true, ID: want.q, Options: o}},
					BatchOptions{Workers: 2})
				if err == nil {
					res = batch[0]
				}
			} else {
				res, err = x.Query(context.Background(), ds.Attr(want.q), o)
			}
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, r := range res.Ranked {
				fmt.Fprintf(h, "%d:%x;", r.ID, math.Float64bits(r.Violation))
			}
			st := res.Stats
			if st.InitialCandidates != want.initial || st.AfterSlices != want.slices ||
				st.AfterSubsetCheck != want.subset || st.Validated != want.validated ||
				st.Results != want.hits || h.Sum64() != want.ranked {
				t.Errorf("workers=%d query %d: funnel %d/%d/%d/%d, %d results, ranked %#x; pinned %+v", workers,
					want.q, st.InitialCandidates, st.AfterSlices, st.AfterSubsetCheck, st.Validated,
					st.Results, h.Sum64(), want)
			}
		}
	}
}

// validate's workers share nothing but two atomics and write disjoint
// slots: many workers must return what one returns, and the first failing
// check must stop the rest and surface as the typed error. Run under -race.
func TestValidateParallelMatchesSequential(t *testing.T) {
	c, err := datagen.Generate(datagen.Config{Seed: 7, Attributes: 200, Horizon: 300})
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	x := buildTestIndex(t, ds, DefaultOptions(ds.Horizon()))
	ctx := context.Background()
	p := core.Params{Epsilon: 40, Delta: 7, Weight: timeline.Uniform(ds.Horizon())}
	q := ds.Attr(3)
	check := func(s *core.Scratch, c int) (float64, bool, error) {
		return s.Check(ctx, q, ds.Attr(history.AttrID(c)), p)
	}
	run := func(workers int, check func(*core.Scratch, int) (float64, bool, error)) ([]Ranked, int, error) {
		ar := x.pool.getArena(ds.Len())
		defer x.pool.putArena(ar)
		r := &queryRun{x: x, ar: ar, valWorkers: workers}
		cand := bitmatrix.NewVec(ds.Len())
		cand.Fill()
		var st QueryStats
		hits, err := r.validate(ctx, cand, &st, check)
		return append([]Ranked(nil), hits...), st.Validated, err
	}
	want, validated, err := run(1, check)
	if err != nil || validated != ds.Len() || len(want) == 0 || len(want) == ds.Len() {
		t.Fatalf("sequential: %d hits of %d validated, err %v", len(want), validated, err)
	}
	for _, workers := range []int{2, 3, 8, 500} {
		got, validated, err := run(workers, check)
		if err != nil || validated != ds.Len() || !slices.Equal(got, want) {
			t.Fatalf("workers=%d: %d hits of %d validated (err %v), want %d", workers, len(got), validated, err, len(want))
		}
	}
	var calls atomic.Int64
	failing := func(s *core.Scratch, c int) (float64, bool, error) {
		if calls.Add(1) == 5 {
			return 0, false, context.Canceled
		}
		return check(s, c)
	}
	for _, workers := range []int{1, 4} {
		calls.Store(0)
		if hits, _, err := run(workers, failing); !errors.Is(err, ErrCanceled) || hits != nil {
			t.Fatalf("workers=%d: a failing check returned %d hits, err %v", workers, len(hits), err)
		}
		if n := calls.Load(); n >= int64(ds.Len()) {
			t.Fatalf("workers=%d: %d checks ran after one failed; the error must stop the others", workers, n)
		}
	}
}

// A top-k query is one exact scan: one span per phase plus the rank, every
// other attribute a candidate through every phase, no slice consulted, and
// each phase's Timings at least its span while all of them fit in Total.
// Params.Epsilon is ignored — below the index ε, at it and far above the
// largest weight, the ranking and the funnel are the same.
func TestTopKIsOneScan(t *testing.T) {
	c, err := datagen.Generate(datagen.Config{Seed: 42, Attributes: 300, Horizon: 800})
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	opt := DefaultOptions(ds.Horizon())
	x := buildTestIndex(t, ds, opt)
	w, delta := opt.Params.Weight, opt.Params.Delta
	ctx := context.Background()
	for qi := 0; qi < ds.Len(); qi += 7 {
		q := ds.Attr(history.AttrID(qi))
		for _, k := range []int{10, 120} {
			var first Result
			for i, eps := range []float64{0, opt.Params.Epsilon, 10 * core.MaxViolation(q, w)} {
				res, err := x.Query(ctx, q, QueryOptions{Mode: ModeTopK,
					Params: core.Params{Epsilon: eps, Delta: delta, Weight: w}, K: k, Trace: true})
				if err != nil {
					t.Fatal(err)
				}
				st := res.Stats
				spans := map[string]int{}
				spent := map[string]time.Duration{}
				for _, sp := range st.Trace {
					spans[sp.Name]++
					spent[sp.Name] += sp.Duration()
				}
				tm := st.Timings
				phases := map[string]time.Duration{phaseMTPrune: tm.MTPrune, phaseSlicePrune: tm.SlicePrune,
					phaseSubsetCheck: tm.SubsetCheck, phaseValidate: tm.Validate, phaseRank: tm.Rank}
				if len(st.Trace) != len(phases) {
					t.Fatalf("query %d k=%d ε=%g: trace is not one span per phase: %v", qi, k, eps, spans)
				}
				var sum time.Duration
				for name, d := range phases {
					sum += d
					if spans[name] != 1 {
						t.Fatalf("query %d k=%d ε=%g: trace is not one span per phase: %v", qi, k, eps, spans)
					}
					if d < spent[name] {
						t.Fatalf("query %d k=%d ε=%g: Timings has %v of %s, its span %v", qi, k, eps, d, name, spent[name])
					}
				}
				if sum > tm.Total {
					t.Fatalf("query %d k=%d ε=%g: phases sum to %v, Total %v", qi, k, eps, sum, tm.Total)
				}
				if st.InitialCandidates != ds.Len()-1 || st.AfterSubsetCheck != ds.Len()-1 || st.SlicesUsed != 0 {
					t.Fatalf("query %d k=%d ε=%g: funnel %d → %d with %d slices, want the scan of all %d other attributes and none",
						qi, k, eps, st.InitialCandidates, st.AfterSubsetCheck, st.SlicesUsed, ds.Len()-1)
				}
				if i == 0 {
					first = res
					continue
				}
				if !slices.Equal(res.Ranked, first.Ranked) || funnel(st) != funnel(first.Stats) {
					t.Fatalf("query %d k=%d: ε=%g ranks or funnels differently from ε=0: %v %+v, want %v %+v",
						qi, k, eps, res.Ranked, funnel(st), first.Ranked, funnel(first.Stats))
				}
			}
		}
	}
}

// funnel is the candidate funnel of a query's statistics.
func funnel(st QueryStats) [5]int {
	return [5]int{st.InitialCandidates, st.AfterSlices, st.AfterSubsetCheck, st.Validated, st.Results}
}
