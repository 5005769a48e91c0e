package obs

import (
	"math"
	"testing"
)

// TestQuantileBucketEdges is the regression suite for the
// Histogram.Quantile interpolation bugs: before the fix, a rank that
// landed in an empty leading bucket (q=0 with no samples below the
// first bound) resolved to that bucket's upper edge — a value below
// anything ever observed — via the 0/0-guard branch, and /healthz p50
// could report it.
func TestQuantileBucketEdges(t *testing.T) {
	cases := []struct {
		name    string
		bounds  []float64
		observe []float64
		q       float64
		want    float64
	}{
		// q=0 must clamp to the lower edge of the first nonempty
		// bucket, skipping the empty leading buckets. Pre-fix this
		// returned bounds[0] = 1, below the observed minimum.
		{"empty-leading/q0", []float64{1, 2, 3}, []float64{2.5}, 0, 2},
		{"empty-leading/q0.5", []float64{1, 2, 3}, []float64{2.5}, 0.5, 2.5},
		{"empty-leading/q1", []float64{1, 2, 3}, []float64{2.5}, 1, 3},
		// Two empty leading buckets, several samples.
		{"two-empty-leading/q0", []float64{1, 2, 4}, []float64{3, 3.5}, 0, 2},
		{"two-empty-leading/q1", []float64{1, 2, 4}, []float64{3, 3.5}, 1, 4},

		// Single-bucket histogram: interpolate from 0 to the bound.
		{"single-bucket/q0", []float64{10}, []float64{5}, 0, 0},
		{"single-bucket/q0.5", []float64{10}, []float64{5}, 0.5, 5},
		{"single-bucket/q1", []float64{10}, []float64{5}, 1, 10},

		// q=1 with trailing empty buckets stops at the last nonempty
		// bucket's upper edge instead of drifting to the final bound.
		{"trailing-empty/q1", []float64{1, 2, 3}, []float64{0.5}, 1, 1},

		// Interior empty bucket between two occupied ones.
		{"interior-empty/q0.5", []float64{1, 2, 3}, []float64{0.5, 2.5}, 0.5, 1},
		{"interior-empty/q0.75", []float64{1, 2, 3}, []float64{0.5, 2.5}, 0.75, 2.5},

		// All mass beyond the last finite bound: every q clamps to the
		// highest bound (pre-fix, q=0 here returned bounds[0]).
		{"all-inf/q0", []float64{1, 2}, []float64{5}, 0, 2},
		{"all-inf/q0.5", []float64{1, 2}, []float64{5}, 0.5, 2},
		{"all-inf/q1", []float64{1, 2}, []float64{5}, 1, 2},

		// Plain interpolation inside one bucket stays exact.
		{"interp/q0.5", []float64{1, 2}, []float64{1.2, 1.4, 1.6, 1.8}, 0.5, 1.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			h := r.Histogram("q_test", "", tc.bounds)
			for _, v := range tc.observe {
				h.Observe(v)
			}
			got := h.Quantile(tc.q)
			if math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("Quantile(%g) over %v with bounds %v = %g, want %g",
					tc.q, tc.observe, tc.bounds, got, tc.want)
			}
		})
	}
}

// TestQuantileInvalid pins the NaN contract: empty histograms and
// out-of-range or NaN q values have no estimate.
func TestQuantileInvalid(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_invalid", "", []float64{1, 2})
	if v := h.Quantile(0.5); !math.IsNaN(v) {
		t.Fatalf("empty histogram Quantile(0.5) = %g, want NaN", v)
	}
	h.Observe(1.5)
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if v := h.Quantile(q); !math.IsNaN(v) {
			t.Fatalf("Quantile(%g) = %g, want NaN", q, v)
		}
	}
}
