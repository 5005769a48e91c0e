package core_test

import (
	"math"
	"slices"
	"testing"

	"tind/internal/core"
	"tind/internal/datagen"
	"tind/internal/timeline"
	"tind/internal/values"
)

// TestRequiredValuesScratchMatchesMap holds the mark-array kernel of
// R_{ε,w}(Q) to the map reference, OccurrenceWeights, on generated
// histories under every weight family. One scratch serves every query in
// turn, as one arena does, so the marks a query leaves behind are what the
// next one starts from. Besides ε = 0 and ε = +∞ the budgets are Q's own
// occurrence weights: a sum that differed from the reference's in its last
// bit would move the value across the boundary.
func TestRequiredValuesScratchMatchesMap(t *testing.T) {
	const horizon = timeline.Time(160)
	c, err := datagen.Generate(datagen.Config{Seed: 5, Attributes: 300, Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	var s core.RequiredScratch
	for wname, w := range regimeWeights(t, horizon) {
		t.Run(wname, func(t *testing.T) {
			for _, q := range ds.Attrs() {
				occ := core.OccurrenceWeights(q, w)
				budgets := []float64{0, math.Inf(1)}
				for i, v := range q.AllValues() {
					if i%3 == 0 {
						budgets = append(budgets, occ[v])
					}
				}
				for _, eps := range budgets {
					var want values.Set
					for v, ow := range occ {
						if ow > eps {
							want = append(want, v)
						}
					}
					slices.Sort(want)
					got := core.RequiredValuesScratch(q, eps, w, &s)
					if !slices.Equal(got, want) {
						t.Fatalf("attribute %d, ε=%v: scratch kernel %v, map reference %v", q.ID(), eps, got, want)
					}
					if one := core.RequiredValues(q, eps, w); !slices.Equal(one, want) {
						t.Fatalf("attribute %d, ε=%v: RequiredValues %v, map reference %v", q.ID(), eps, one, want)
					}
				}
			}
		})
	}
}
