package core_test

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/timeline"
	"tind/internal/values"
)

// refSweep is the sweep as it ran before every check went through a
// Prepared: Q's side is projected, pair by pair, onto
// common = All(Q) ∩ All(A) by galloping, and the window counts are kept by
// position in common. Check, ViolationWeight and Explain are held to it
// bit for bit: the same runs with the same weights and the same missing
// values, yielded in the same order.
func refSweep(q, a *history.History, p core.Params, yield func(run timeline.Interval, w float64, missing values.Value) bool) {
	n, d, na := p.Weight.Horizon(), p.Delta, a.NumVersions()
	common := values.AppendIntersect(nil, q.AllValues(), a.AllValues())
	var counts, qpos, apos []int32
	count := func(vs values.Set, d int32) {
		apos = refPositions(apos[:0], common, vs)
		for _, at := range apos {
			counts[at] += d
		}
	}
	lo, hi := 0, 0 // versions [lo, hi) of A are counted in the window
	for i := 0; i < q.NumVersions(); i++ {
		qv, iv := q.Version(i).Values, q.Validity(i).Clamp(n)
		if qv.IsEmpty() || iv.IsEmpty() {
			continue
		}
		qpos = refPositions(qpos[:0], common, qv)
		if len(qpos) < len(qv) {
			if !yield(iv, p.Weight.Sum(iv), refFirstOutside(qv, common, qpos)) {
				return
			}
			continue
		}
		if counts == nil {
			counts = make([]int32, len(common))
		}
		var run timeline.Interval
		var missing values.Value
		for t := iv.Start; t < iv.End; {
			for ; lo < na && a.ValidUntil(lo)+d <= t; lo++ {
				if lo < hi {
					count(a.Version(lo).Values, -1)
				}
			}
			hi = max(hi, lo)
			for ; hi < na && a.Version(hi).Start-d <= t; hi++ {
				count(a.Version(hi).Values, 1)
			}
			next := iv.End
			if hi < na {
				next = min(next, a.Version(hi).Start-d)
			}
			if lo < na {
				next = min(next, a.ValidUntil(lo)+d)
			}
			miss := slices.IndexFunc(qpos, func(at int32) bool { return counts[at] == 0 })
			switch {
			case miss < 0:
				if !run.IsEmpty() && !yield(run, p.Weight.Sum(run), missing) {
					return
				}
				run = timeline.Interval{}
			case run.IsEmpty():
				run, missing = timeline.NewInterval(t, next), common[qpos[miss]]
			default:
				run.End = next
			}
			t = next
		}
		if !run.IsEmpty() && !yield(run, p.Weight.Sum(run), missing) {
			return
		}
	}
}

// refPositions appends, ascending, the positions in common of the values
// common shares with vs, walking the shorter of the two and galloping
// through the longer.
func refPositions(dst []int32, common []values.Value, vs values.Set) []int32 {
	if len(common) <= len(vs) {
		for at, v := range common {
			i := values.Gallop(vs, v)
			if i == len(vs) {
				break
			}
			if vs[i] == v {
				dst = append(dst, int32(at))
				i++
			}
			vs = vs[i:]
		}
		return dst
	}
	at := 0
	for _, v := range vs {
		at += values.Gallop(common[at:], v)
		if at == len(common) {
			break
		}
		if common[at] == v {
			dst = append(dst, int32(at))
			at++
		}
	}
	return dst
}

// refFirstOutside returns the first value of qv, in id order, that is not
// in common; pos are qv's positions in common.
func refFirstOutside(qv values.Set, common []values.Value, pos []int32) values.Value {
	for i, at := range pos {
		if common[at] != qv[i] {
			return qv[i]
		}
	}
	return qv[len(pos)]
}

// refCheck is the reference's Check: the sweep's runs summed in time
// order, stopping once the sum exceeds ε.
func refCheck(q, a *history.History, p core.Params) (float64, bool) {
	var weight float64
	refSweep(q, a, p, func(_ timeline.Interval, w float64, _ values.Value) bool {
		weight += w
		return weight <= p.Epsilon
	})
	return weight, weight <= p.Epsilon
}

// refExplain is the reference's Explain: the sweep's runs, adjacent ones
// merged.
func refExplain(q, a *history.History, p core.Params) []core.Violation {
	var out []core.Violation
	refSweep(q, a, p, func(run timeline.Interval, w float64, missing values.Value) bool {
		if len(out) > 0 && out[len(out)-1].Interval.End == run.Start {
			out[len(out)-1].Interval.End = run.End
			out[len(out)-1].Weight += w
		} else {
			out = append(out, core.Violation{Interval: run, Weight: w, Missing: missing})
		}
		return true
	})
	return out
}

// compareReference checks q against a on s, and through ViolationWeight
// and Explain, against the reference: bit-equal weights and verdicts with
// ε at p's, unbounded, at the pair's exact weight and just below it (where
// the early exit stops at a partial sum), and identical violations.
func compareReference(t *testing.T, s *core.Scratch, q, a *history.History, p core.Params) {
	t.Helper()
	name := q.Meta().String() + " ⊆ " + a.Meta().String()
	full := p
	full.Epsilon = math.Inf(1)
	exact, _ := refCheck(q, a, full)
	if got := core.ViolationWeight(q, a, p); math.Float64bits(got) != math.Float64bits(exact) {
		t.Errorf("%s: ViolationWeight = %v, reference %v", name, got, exact)
	}
	for _, eps := range []float64{p.Epsilon, math.Inf(1), exact, math.Nextafter(exact, -1)} {
		if eps < 0 {
			continue
		}
		pe := p
		pe.Epsilon = eps
		want, wantOK := refCheck(q, a, pe)
		got, gotOK, err := s.Check(nil, q, a, pe)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) || gotOK != wantOK {
			t.Errorf("%s (ε %v): Check = (%v, %v), reference (%v, %v)", name, eps, got, gotOK, want, wantOK)
		}
	}
	if got, want := core.Explain(q, a, p), refExplain(q, a, p); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: Explain = %+v, reference %+v", name, got, want)
	}
}

// refHistory draws a history over [from, end) ⊆ [0, n) whose values come
// from vocab; about one version in six is empty.
func refHistory(r *rand.Rand, page string, n timeline.Time, vocab []values.Value) *history.History {
	from := timeline.Time(r.Intn(int(n)))
	end := from + 1 + timeline.Time(r.Intn(int(n-from)))
	var versions []history.Version
	for start := from; start < end; start += 1 + timeline.Time(r.Intn(int(n)/3+1)) {
		var vals values.Set
		if r.Intn(6) != 0 {
			ids := make([]values.Value, 1+r.Intn(6))
			for i := range ids {
				ids[i] = vocab[r.Intn(len(vocab))]
			}
			vals = values.NewSet(ids...)
		}
		if len(versions) == 0 || !vals.Equal(versions[len(versions)-1].Values) {
			versions = append(versions, history.Version{Start: start, Values: vals})
		}
	}
	h, err := history.New(history.Meta{Page: page}, versions, end)
	if err != nil {
		panic(err)
	}
	return h
}

// idRange returns the ids [lo, lo+k).
func idRange(lo values.Value, k int) []values.Value {
	out := make([]values.Value, k)
	for i := range out {
		out[i] = lo + values.Value(i)
	}
	return out
}

// fold folds v into [lo, hi].
func fold(v, lo, hi int64) int64 {
	span := hi - lo + 1
	if v %= span; v < 0 {
		v += span
	}
	return lo + v
}

// FuzzCheckMatchesReference holds Check, ViolationWeight and Explain to
// the unprepared reference sweep bit for bit. One Scratch checks a run of
// left-hand sides against one right-hand side, as a reverse query does: a
// side over low ids, one over ids shifted up by a fuzzed offset (so the
// mark array grows), the low side again, and the shifted side twice in a
// row. The right-hand side draws from both vocabularies.
func FuzzCheckMatchesReference(f *testing.F) {
	f.Add(int64(1), int64(60), int64(2), 0.05, int64(0), int64(0))
	f.Add(int64(7), int64(31), int64(0), 0.0, int64(2), int64(500))
	f.Add(int64(-3), int64(121), int64(7), 0.4, int64(4), int64(9))
	f.Add(int64(11), int64(90), int64(30), 1.0, int64(1), int64(4000))
	f.Fuzz(func(t *testing.T, seed, horizon, delta int64, epsShare float64, wkind, shift int64) {
		n := timeline.Time(fold(horizon, 4, 150))
		weights := regimeWeights(t, n)
		names := make([]string, 0, len(weights))
		for name := range weights {
			names = append(names, name)
		}
		slices.Sort(names)
		w := weights[names[fold(wkind, 0, int64(len(names)-1))]]
		if math.IsNaN(epsShare) || math.IsInf(epsShare, 0) {
			epsShare = 0
		}
		p := core.Params{
			Epsilon: math.Mod(math.Abs(epsShare), 1) * w.Sum(timeline.NewInterval(0, n)),
			Delta:   timeline.Time(fold(delta, 0, 40)),
			Weight:  w,
		}
		r := rand.New(rand.NewSource(seed))
		low := idRange(0, 18)
		high := idRange(values.Value(18+fold(shift, 0, 5000)), 18)
		a := refHistory(r, "a", n, append(slices.Clone(low), high...))
		ql, qh := refHistory(r, "low", n, low), refHistory(r, "high", n, high)
		var s core.Scratch
		for _, q := range []*history.History{ql, qh, ql, qh, qh} {
			compareReference(t, &s, q, a, p)
		}
	})
}

// TestCheckMatchesReferenceAcrossSides checks a run of different left-hand
// sides on one Scratch against fixed right-hand sides — the reverse
// query's pattern — and holds every check to the reference bit for bit.
// The run includes sides over ids above every earlier one (the mark array
// grows), a side whose All is empty, the same side twice in a row, and a
// return to low ids after high ones (marks left behind must not leak).
func TestCheckMatchesReferenceAcrossSides(t *testing.T) {
	const n = timeline.Time(120)
	mk := func(page string, end timeline.Time, vs ...history.Version) *history.History {
		h, err := history.New(history.Meta{Page: page}, vs, end)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	ver := func(start timeline.Time, ids ...values.Value) history.Version {
		return history.Version{Start: start, Values: values.NewSet(ids...)}
	}
	rhs := []*history.History{
		mk("a-low", n, ver(0, 1, 2, 3), ver(20, 2, 3, 4), ver(50, 1, 4), ver(90, 1, 2, 3, 4, 5)),
		mk("a-mixed", n, ver(5, 2, 300, 301), ver(40, 3, 300, 70000), ver(80, 2, 3, 301, 70000, 70001)),
		mk("a-empty-end", 60, ver(0, 1, 300), ver(30)),
	}
	lhs := []*history.History{
		mk("low", n, ver(0, 1, 2), ver(25, 2, 4), ver(60, 1, 3), ver(100, 5)),
		mk("mid", n, ver(10, 300), ver(45, 300, 301), ver(70, 3, 301)),
		mk("high", n, ver(0, 70000), ver(35, 70000, 70001), ver(85, 2, 70001)),
		mk("high", n, ver(0, 70000), ver(35, 70000, 70001), ver(85, 2, 70001)),
		mk("empty-all", 90, ver(3)),
		mk("low-again", n, ver(2, 1), ver(30, 1, 2, 3), ver(75, 4, 5)),
		mk("top", n, ver(0, 1, 1<<20), ver(50, 1<<20)),
	}
	lhs = append(lhs, lhs[len(lhs)-1]) // the same side object twice
	for wname, w := range regimeWeights(t, n) {
		total := w.Sum(timeline.NewInterval(0, n))
		for _, delta := range []timeline.Time{0, 7, 30} {
			p := core.Params{Epsilon: 0.04 * total, Delta: delta, Weight: w}
			var s core.Scratch
			for _, a := range rhs {
				for _, q := range lhs {
					compareReference(t, &s, q, a, p)
				}
			}
			if t.Failed() {
				t.Fatalf("weight %s, δ %d", wname, delta)
			}
		}
	}
}
