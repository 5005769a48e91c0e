package shard

import "tind/internal/obs"

var reg = obs.Default()

var (
	mShardCount = reg.Gauge("tind_shard_count",
		"Shards of the most recently built sharded index.")
	mShardBuildSeconds = reg.Histogram("tind_shard_build_seconds",
		"Wall time of complete sharded index builds (all shards).", obs.ExpBuckets(0.001, 4, 12))
	// Registration is idempotent by (name, labels), so this is the same
	// instrument the monolith's AllPairsContext observes — sharded and
	// monolithic discovery runs land in one series.
	mAllPairsSeconds = reg.Histogram("tind_allpairs_seconds",
		"Wall time of complete all-pairs discovery runs.", obs.ExpBuckets(0.001, 4, 14))
	// The series keeps the name it had when only the router had a failure
	// taxonomy: the Coordinator decides the outcome now, but still only the
	// network transport can make a call partial.
	mPartialResults = reg.Counter("tind_router_partial_results_total",
		"Queries answered from a subset of shards (ErrPartialResult).")
)
