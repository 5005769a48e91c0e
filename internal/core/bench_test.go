package core

import (
	"fmt"
	"math/rand"
	"testing"

	"tind/internal/history"
	"tind/internal/timeline"
	"tind/internal/values"
)

// benchPair builds a contained pair with the given number of versions,
// exercising Algorithm 2's interval partitioning.
func benchPair(versions int) (*history.History, *history.History) {
	r := rand.New(rand.NewSource(7))
	horizon := timeline.Time(versions * 10)
	rhs := history.NewBuilder(history.Meta{Page: "rhs"})
	lhs := history.NewBuilder(history.Meta{Page: "lhs"})
	var pool []values.Value
	for v := 0; v < versions; v++ {
		pool = append(pool, values.Value(v))
		rhs.Observe(timeline.Time(v*10), values.NewSet(pool...))
		sub := make([]values.Value, 0, len(pool)/2+1)
		for _, x := range pool {
			if r.Intn(2) == 0 {
				sub = append(sub, x)
			}
		}
		sub = append(sub, values.Value(v))
		lhs.Observe(timeline.Time(v*10+r.Intn(3)), values.NewSet(sub...))
	}
	a, err := rhs.Build(horizon)
	if err != nil {
		panic(err)
	}
	q, err := lhs.Build(horizon)
	if err != nil {
		panic(err)
	}
	return q, a
}

// foreignColumn builds a 50-version column over a vocabulary of its own
// (ids from 1<<20), plus the given values of someone else's in every version.
func foreignColumn(shared ...values.Value) *history.History {
	b := history.NewBuilder(history.Meta{Page: "foreign"})
	for v := 0; v < 50; v++ {
		ids := append([]values.Value{}, shared...)
		for k := 0; k <= v; k++ {
			ids = append(ids, values.Value(1<<20+k))
		}
		b.Observe(timeline.Time(v*10), values.NewSet(ids...))
	}
	a, err := b.Build(500)
	if err != nil {
		panic(err)
	}
	return a
}

// BenchmarkHolds times one validation. The versions=N cases are contained
// pairs, the expensive road through the sweep; unrelated and
// shares-one-value are what top-k and relaxed queries mostly validate — a
// right-hand side with nothing, or one stray value, of Q's vocabulary.
func BenchmarkHolds(b *testing.B) {
	type pair struct {
		name string
		q, a *history.History
	}
	var pairs []pair
	for _, versions := range []int{13, 50, 200} {
		q, a := benchPair(versions)
		pairs = append(pairs, pair{fmt.Sprintf("versions=%d", versions), q, a})
	}
	q, _ := benchPair(50)
	pairs = append(pairs,
		pair{"unrelated", q, foreignColumn()},
		pair{"shares-one-value", q, foreignColumn(7)})
	for _, pr := range pairs {
		p := Params{Epsilon: 3, Delta: 7, Weight: timeline.Uniform(pr.q.ObservedUntil())}
		b.Run(pr.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Holds(pr.q, pr.a, p)
			}
		})
	}
}

func BenchmarkHoldsVsNaive(b *testing.B) {
	q, a := benchPair(50)
	p := Params{Epsilon: 3, Delta: 7, Weight: timeline.Uniform(q.ObservedUntil())}
	b.Run("algorithm2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Holds(q, a, p)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			HoldsNaive(q, a, p)
		}
	})
}

func BenchmarkRequiredValues(b *testing.B) {
	q, _ := benchPair(50)
	w := timeline.Uniform(q.ObservedUntil())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RequiredValues(q, 3, w)
	}
}
