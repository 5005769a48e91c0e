package index

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tind/internal/bitmatrix"
	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/timeline"
	"tind/internal/values"
)

// keyProbeWeights are the weight families the key probe's closed form must
// agree with the sweep under, bit for bit, over horizon n.
func keyProbeWeights(t *testing.T, n timeline.Time) map[string]timeline.WeightFunc {
	t.Helper()
	exp, err := timeline.NewExponentialDecay(n, 0.97)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]timeline.WeightFunc{
		"uniform":     timeline.Uniform(n),
		"expdecay":    exp,
		"lineardecay": timeline.LinearDecay{N: n, W0: 0.2, W1: 1.5},
	}
}

// checkKeyReach holds the key probe of every query attribute of x to its
// two promises under every weight family and δ: an attribute outside the
// reach has a violation weight bit-equal to MaxViolation(Q), and every
// attribute that covers some non-empty, observed version of Q is inside
// it. It returns how many pairs the probe decided.
func checkKeyReach(t *testing.T, x *Index) int {
	t.Helper()
	ds := x.ds
	ar := x.pool.getArena(ds.Len())
	defer x.pool.putArena(ar)
	r := &queryRun{x: x, ar: ar}
	all := bitmatrix.NewVecFull(ds.Len())
	n := ds.Horizon()
	weights := keyProbeWeights(t, n)
	decided := 0
	for _, q := range ds.Attrs() {
		reach := r.keyReach(q, n, all)
		for _, a := range ds.Attrs() {
			covers := false
			for i := range q.NumVersions() {
				qv := q.Version(i).Values
				if !qv.IsEmpty() && !q.Validity(i).Clamp(n).IsEmpty() && qv.SubsetOf(a.AllValues()) {
					covers = true
				}
			}
			in := reach.Get(int(a.ID()))
			if covers && !in {
				t.Fatalf("attribute %d covers a version of query %d but is outside its key reach", a.ID(), q.ID())
			}
			if in {
				continue
			}
			decided++
			for wname, w := range weights {
				maxVio := core.MaxViolation(q, w)
				for _, delta := range []timeline.Time{0, 7, 30} {
					got := core.ViolationWeight(q, a, core.Params{Delta: delta, Weight: w})
					if math.Float64bits(got) != math.Float64bits(maxVio) {
						t.Fatalf("%s δ=%d: %d ⊆ %d weighs %v outside the key reach, MaxViolation %v",
							wname, delta, q.ID(), a.ID(), got, maxVio)
					}
				}
			}
		}
	}
	return decided
}

// TestKeyProbeDecidesExactly pins the key probe of top-k's full scan
// (DESIGN §5.1): what it leaves out weighs exactly MaxViolation(Q) under
// uniform, exponential-decay and linear-decay weights at δ ∈ {0, 7, 30},
// and it leaves out nothing that can cover a version of Q — on a fresh
// build with a small Bloom shape, where false positives can occur, and again
// after a Refresh appends versions holding values interned after the
// build (document frequency 0, so they become the keys). Under
// DisableRequiredValues the probe does not run: no check is decided in
// closed form.
func TestKeyProbeDecidesExactly(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			horizon := timeline.Time(60 + r.Intn(40))
			ds := randDataset(r, 40, horizon)
			opt := DefaultOptions(horizon)
			opt.Bloom = bloom.Params{M: 128, K: 2}
			x := buildTestIndex(t, ds, opt)
			decided := checkKeyReach(t, x)

			// A few fresh values, each appended by several attributes so
			// that some right-hand sides cover the new versions.
			newHorizon := horizon + 20
			if err := ds.ExtendHorizon(newHorizon); err != nil {
				t.Fatal(err)
			}
			var changed []history.AttrID
			for _, h := range ds.Attrs() {
				if r.Intn(2) == 0 {
					continue
				}
				vs := values.NewSet(values.Value(1000+r.Intn(3)), values.Value(r.Intn(20)))
				if r.Intn(2) == 0 {
					vs = vs.Union(values.NewSet(values.Value(1000 + r.Intn(3))))
				}
				if err := h.Append(h.ObservedUntil()+timeline.Time(r.Intn(5)), vs, newHorizon); err != nil {
					t.Fatal(err)
				}
				changed = append(changed, h.ID())
			}
			if err := x.Refresh(changed, newHorizon); err != nil {
				t.Fatal(err)
			}
			decided += checkKeyReach(t, x)
			if decided == 0 {
				t.Fatal("the key probe decided no pair; the corpus does not exercise it")
			}
		})
	}

	ds := randDataset(rand.New(rand.NewSource(9)), 40, 80)
	o := QueryOptions{Mode: ModeTopK, Params: core.Params{Delta: 7, Weight: timeline.Uniform(80)}, K: 3}
	for _, disable := range []bool{false, true} {
		opt := DefaultOptions(80)
		opt.DisableRequiredValues = disable
		x := buildTestIndex(t, ds, opt)
		before := qm[ModeTopK].closedForm.Value()
		for _, q := range ds.Attrs() {
			if _, err := x.Query(context.Background(), q, o); err != nil {
				t.Fatal(err)
			}
		}
		if decided := qm[ModeTopK].closedForm.Value() - before; (decided > 0) == disable {
			t.Errorf("DisableRequiredValues=%v: %d checks decided in closed form", disable, decided)
		}
	}
}
