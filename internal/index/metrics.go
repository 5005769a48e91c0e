package index

import (
	"strconv"

	"tind/internal/obs"
)

// Metric names follow the Prometheus conventions: a tind_ namespace,
// base units (seconds, bytes), _total suffix on counters. The inventory
// is documented in DESIGN.md §7.
var reg = obs.Default()

// modeMetrics bundles the per-query-mode instruments.
type modeMetrics struct {
	queries *obs.Counter
	errors  *obs.Counter
	total   *obs.Histogram
	phases  map[string]*obs.Histogram
	// Candidate-funnel histograms: how many survive each pruning stage.
	candInitial    *obs.Histogram
	candSlices     *obs.Histogram
	candSubset     *obs.Histogram
	exactChecks    *obs.Counter
	resultsEmitted *obs.Counter
	prefixEntries  *obs.Counter
	windowSweeps   *obs.Counter
	closedForm     *obs.Counter
}

// qm holds the per-mode metrics, indexed by Mode.
var qm [numModes]modeMetrics

// Index-build instruments.
var (
	mBuildSeconds = reg.Histogram("tind_index_build_seconds",
		"Wall time of full index builds.", obs.ExpBuckets(0.001, 4, 12))
	mAllPairsSeconds = reg.Histogram("tind_allpairs_seconds",
		"Wall time of complete all-pairs discovery runs.", obs.ExpBuckets(0.001, 4, 14))
	// Re-slicing instruments: the pass that re-selects the slice
	// intervals and refills their matrices from current histories.
	mResliceSeconds = reg.Histogram("tind_index_reslice_seconds",
		"Wall time of re-slicing passes (selection + fill, under the write lock).",
		obs.ExpBuckets(0.001, 4, 12))
	mReslices = reg.Counter("tind_index_reslices_total",
		"Completed re-slicing passes.")
	// Batched-execution instruments.
	mBatchQueries = reg.Counter("tind_query_batches_total",
		"QueryBatch calls started.")
	mBatchSize = reg.Histogram("tind_query_batch_size",
		"Sub-queries per QueryBatch call.", obs.CountBuckets)
)

func init() {
	latHelp := "Query-phase latency by mode and phase."
	for m := Mode(0); m < numModes; m++ {
		mode := obs.L("mode", m.String())
		phases := make(map[string]*obs.Histogram, len(obs.Phases))
		for _, ph := range obs.Phases {
			phases[ph] = reg.Histogram("tind_query_phase_seconds", latHelp,
				obs.LatencyBuckets, mode, obs.L("phase", ph))
		}
		qm[m] = modeMetrics{
			queries: reg.Counter("tind_queries_total", "Queries started, by mode.", mode),
			errors:  reg.Counter("tind_query_errors_total", "Queries that returned an error (including cancellation), by mode.", mode),
			total:   reg.Histogram("tind_query_seconds", "End-to-end query latency by mode.", obs.LatencyBuckets, mode),
			phases:  phases,
			candInitial: reg.Histogram("tind_query_candidates", "Candidates surviving each pruning stage.",
				obs.CountBuckets, mode, obs.L("stage", "initial")),
			candSlices: reg.Histogram("tind_query_candidates", "Candidates surviving each pruning stage.",
				obs.CountBuckets, mode, obs.L("stage", "after_slices")),
			candSubset: reg.Histogram("tind_query_candidates", "Candidates surviving each pruning stage.",
				obs.CountBuckets, mode, obs.L("stage", "after_subset_check")),
			exactChecks: reg.Counter("tind_query_exact_checks_total",
				"Candidates given an exact verdict or place, by Algorithm 2, by its closed form or by top-k's lower bound, by mode.", mode),
			resultsEmitted: reg.Counter("tind_query_results_total", "Dependencies reported to callers, by mode.", mode),
			prefixEntries: reg.Counter("tind_query_prefix_entries_read_total",
				"Weighted prefix index entries read to generate reverse candidates where M_R cannot serve the query, by mode.", mode),
			windowSweeps: reg.Counter("tind_query_window_sweeps_total",
				"Exact checks whose sweep reached the window walk over the right-hand side's versions, by mode.", mode),
			closedForm: reg.Counter("tind_query_closed_form_total",
				"Exact checks decided in closed form, MaxViolation(Q), because the key probe showed the right-hand side covers no version of Q, by mode.", mode),
		}
	}
}

// matrixBuildSeconds returns the build-time histogram of one matrix kind
// (m_t, slice, m_r).
func matrixBuildSeconds(matrix string) *obs.Histogram {
	return reg.Histogram("tind_index_matrix_build_seconds",
		"Per-matrix fill time during index builds.", obs.ExpBuckets(0.0001, 4, 12),
		obs.L("matrix", matrix))
}

// fillRatioGauge returns the Bloom fill-ratio gauge of one matrix kind.
func fillRatioGauge(matrix string) *obs.Gauge {
	return reg.Gauge("tind_index_bloom_fill_ratio",
		"Fraction of set bits in the Bloom matrices of the served index.",
		obs.L("matrix", matrix))
}

// slicePruningPowerGauge returns the p(I) gauge of slice i: the paper's
// pruning-power estimate sum_A |A[I]| / |I| (Section 4.4.2) computed for
// the chosen interval when it was selected.
func slicePruningPowerGauge(i int) *obs.Gauge {
	return reg.Gauge("tind_index_slice_pruning_power",
		"Pruning-power estimate p(I) per chosen time slice.",
		obs.L("slice", strconv.Itoa(i)))
}

// PublishStats sets the index state gauges — attributes, bytes, slices,
// the fill ratio per matrix kind (the slices' mean) and p(I) per slice —
// from st, the statistics of the engine a process serves or ran on. A
// build sets none of them, so a sharded engine reports its aggregate, not
// whichever shard build finished last; the caller publishes whenever what
// it serves changes, so a scrape reads the gauges without touching the
// index. The gauges are registered here, so a process that publishes
// nothing exposes none of them rather than zeros.
func PublishStats(st BuildStats) {
	reg.Gauge("tind_index_attributes", "Attributes covered by the served index.").
		Set(float64(st.Attributes))
	reg.Gauge("tind_index_bytes", "Memory footprint of the served index.").
		Set(float64(st.MemoryBytes))
	reg.Gauge("tind_index_slices", "Time-slice matrices in the served index.").
		Set(float64(st.Slices))
	fillRatioGauge("m_t").Set(st.MTFillRatio)
	if st.MRBits > 0 {
		fillRatioGauge("m_r").Set(st.MRFillRatio)
	}
	if len(st.SliceFillRatios) > 0 {
		var sum float64
		for _, f := range st.SliceFillRatios {
			sum += f
		}
		fillRatioGauge("slices").Set(sum / float64(len(st.SliceFillRatios)))
	}
	for i, p := range st.SlicePruningPower {
		slicePruningPowerGauge(i).Set(p)
	}
}
