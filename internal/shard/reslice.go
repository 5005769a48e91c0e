package shard

import (
	"fmt"

	"tind/internal/index"
)

// Reslice repairs slice-pruning coverage shard-locally: only shards
// whose coverage actually dropped (at least one dirty attribute) rebuild
// their slice matrices; clean shards are skipped entirely. Each affected
// shard runs index.Reslice — shadow build off-lock, short write-locked
// swap — so queries against every shard, touched or not, proceed
// throughout except during a shard's own swap. Shards reslice in
// deterministic order for reproducible error behavior; a failing shard
// aborts the pass with earlier shards already resliced (each shard's own
// pass is atomic, so the partition stays exact either way).
//
// The returned stats aggregate over the shards that resliced: dirty
// counts sum, coverage is recomputed over the global corpus (clean
// shards contribute their attributes to the denominator), elapsed times
// sum, Horizon is the highest horizon resliced over, and Slices counts
// the slice matrices of the resliced shards only.
func (sx *ShardedIndex) Reslice() (index.ResliceStats, error) {
	var agg index.ResliceStats
	attrs, resliced := 0, 0
	for s, sg := range sx.singles {
		x := sg.idx
		attrs += x.Stats().Attributes
		if x.Stats().DirtyAttributes == 0 {
			continue
		}
		st, err := x.Reslice()
		if err != nil {
			return index.ResliceStats{}, fmt.Errorf("shard %d: %w", s, err)
		}
		resliced++
		agg.Slices += st.Slices
		agg.DirtyBefore += st.DirtyBefore
		agg.DirtyAfter += st.DirtyAfter
		agg.BuildElapsed += st.BuildElapsed
		agg.SwapElapsed += st.SwapElapsed
		agg.Elapsed += st.Elapsed
		if st.Horizon > agg.Horizon {
			agg.Horizon = st.Horizon
		}
	}
	agg.CoverageBefore, agg.CoverageAfter = 1, 1
	if attrs > 0 {
		agg.CoverageBefore = 1 - float64(agg.DirtyBefore)/float64(attrs)
		agg.CoverageAfter = 1 - float64(agg.DirtyAfter)/float64(attrs)
	}
	if resliced > 0 {
		// Each resliced shard published shard-local gauge values; restore
		// the global aggregates (the sharded-coverage-gauge fix).
		sx.publishCoverage()
	}
	return agg, nil
}
