package router

import "tind/internal/obs"

var reg = obs.Default()

var (
	mLegsOK = reg.Counter("tind_router_legs_total",
		"Scatter legs by final outcome after replica retries.", obs.L("status", "ok"))
	mLegsError = reg.Counter("tind_router_legs_total",
		"Scatter legs by final outcome after replica retries.", obs.L("status", "error"))
	mLegRetries = reg.Counter("tind_router_leg_retries_total",
		"Scatter-leg attempts beyond the first, i.e. replica retries.")
	mLegSeconds = reg.Histogram("tind_router_leg_seconds",
		"Wall time of individual scatter-leg HTTP attempts.", obs.ExpBuckets(0.0001, 4, 12))
	mShardsDown = reg.Gauge("tind_router_shards_down",
		"Shards whose last contact (scatter leg or probe) failed.")
)
