// Package shard scales the monolithic index.Index out to N independent
// shards behind the same query contract. Attributes are hash-partitioned
// by AttrID (history.ShardOf, deterministic under a fixed seed) and each
// shard is a Single: an index.Index over the global attributes it owns,
// in the one id space of the corpus. The Coordinator is the system's one
// scatter-gather over a set of Legs: queries scatter to every leg and
// gather — forward/reverse result sets union, top-k rankings k-way merge,
// all-pairs discovery sends blocks of forward queries through the batch
// scatter. Because every per-shard answer is exact (the monolith's
// pruning chain is lossless per shard), the gathered answer is exact too
// — the differential tests in this package assert ShardedIndex ≡ oracle ≡
// single-shard Index for every mode. ShardedIndex is the Coordinator over in-process Singles;
// internal/router's Router is the same Coordinator over HTTP legs.
//
// The payoff over one monolith is operational: Refresh locks one shard at
// a time (the shards owning changed attributes refill their columns, the
// rest only advance their weight horizon), builds proceed shard-parallel,
// and the per-shard slice budget shrinks by the shard count (see
// PartitionOptions) without losing exactness.
package shard

import (
	"fmt"
	"sync"
	"time"

	"tind/internal/history"
	"tind/internal/index"
)

// Options configures a sharded build.
type Options struct {
	// Shards is N, the number of independent index partitions; must be
	// at least 1. N=1 is exactly the monolithic index.
	Shards int
	// Seed drives the attribute-to-shard hash (history.ShardOf). It is
	// independent of Index.Seed, which drives slice selection; a corpus
	// persisted with one (Seed, Shards) pair must be reopened with the
	// same pair to land attributes on the same shards.
	Seed int64
	// Index is the per-shard index configuration. Each shard perturbs
	// Index.Seed by its shard number so slice selection differs across
	// shards; everything else applies verbatim. See PartitionOptions for
	// deriving a per-shard slice budget from a monolithic configuration.
	Index index.Options
}

// PartitionOptions derives the per-shard index configuration from a
// monolithic one: the slice budget is divided by the shard count
// (rounding up, keeping at least one slice). Each shard then selects its
// slices over only its own attributes, so the total number of slice
// matrices — and the slice-selection and fill work — stays roughly
// constant while build parallelism and refresh locality scale with N.
// Queries remain exact regardless of slice count; fewer slices per shard
// only trades pruning power, exactly like the monolith's Slices knob.
func PartitionOptions(mono index.Options, shards int) index.Options {
	if shards > 1 && mono.Slices > 0 {
		mono.Slices = (mono.Slices + shards - 1) / shards
	}
	return mono
}

// ShardedIndex serves the index.Index query contract over N hash
// partitions of one dataset: the Coordinator over N in-process *Single
// legs. Immutable after Build except through Refresh, which locks one
// shard at a time.
type ShardedIndex struct {
	*Coordinator
	opt     Options
	g       *global   // the global dataset, ids 0..n-1, shared with every single
	singles []*Single // singles[s] is the Coordinator's leg s

	buildElapsed time.Duration
}

// Build partitions ds into opt.Shards independent indexes and builds
// them concurrently.
func Build(ds *history.Dataset, opt Options) (*ShardedIndex, error) {
	start := time.Now()
	if opt.Shards < 1 {
		return nil, fmt.Errorf("%w: shard count %d < 1", index.ErrInvalidOptions, opt.Shards)
	}
	sx := &ShardedIndex{opt: opt, g: &global{ds: ds}, singles: make([]*Single, opt.Shards)}
	legs := make([]Leg, opt.Shards)
	for s := range sx.singles {
		sg := &Single{ShardID: s, opt: opt, g: sx.g, globals: OwnedGlobals(ds.Len(), opt.Seed, opt.Shards, s)}
		sx.singles[s], legs[s] = sg, sg
	}
	sx.Coordinator = NewCoordinator(legs, ds.Len())

	var wg sync.WaitGroup
	errs := make([]error, opt.Shards)
	for s, sg := range sx.singles {
		wg.Add(1)
		go func(s int, sg *Single) {
			defer wg.Done()
			errs[s] = sg.build()
		}(s, sg)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sx.buildElapsed = time.Since(start)
	mShardCount.Set(float64(opt.Shards))
	mShardBuildSeconds.ObserveDuration(sx.buildElapsed)
	return sx, nil
}

// OwnedGlobals returns the global attribute ids that shard s owns under
// the ShardOf(·, seed, shards) assignment over a corpus of n attributes,
// ascending — the attributes shard s indexes, in the in-process
// ShardedIndex and on a shard server alike.
func OwnedGlobals(n int, seed int64, shards, s int) []history.AttrID {
	var out []history.AttrID
	for g := 0; g < n; g++ {
		if history.ShardOf(history.AttrID(g), seed, shards) == s {
			out = append(out, history.AttrID(g))
		}
	}
	return out
}

// Dataset returns the global dataset the partition was built over.
func (sx *ShardedIndex) Dataset() *history.Dataset { return sx.g.ds }

// Shard returns the s-th shard's index — read-only access for tests and
// diagnostics.
func (sx *ShardedIndex) Shard(s int) *index.Index { return sx.singles[s].idx }

// ShardOwner returns the shard owning the given global attribute.
func (sx *ShardedIndex) ShardOwner(id history.AttrID) int {
	return history.ShardOf(id, sx.opt.Seed, sx.opt.Shards)
}

// Stats is the Coordinator's aggregate with the shard-parallel build
// wall time as Elapsed.
func (sx *ShardedIndex) Stats() index.BuildStats {
	agg := sx.Coordinator.Stats()
	agg.Elapsed = sx.buildElapsed
	return agg
}

// AggregateStats folds per-shard build statistics into one monolith-
// shaped summary: counts, memory and phase times sum; slice spans, fill
// ratios, widths and pruning powers concatenate in shard order; fill
// ratios (per-matrix densities, not additive) report the mean, and the
// M_T and M_R widths the widest. Elapsed is the
// caller's to set — build wall time is a deployment property
// (shard-parallel in-process, independent per shard server), not an
// aggregate.
func AggregateStats(per []index.BuildStats) index.BuildStats {
	var agg index.BuildStats
	for _, st := range per {
		agg.Attributes += st.Attributes
		agg.Slices += st.Slices
		agg.SliceSpans = append(agg.SliceSpans, st.SliceSpans...)
		agg.MemoryBytes += st.MemoryBytes
		agg.MTBuild += st.MTBuild
		agg.SliceBuild += st.SliceBuild
		agg.MRBuild += st.MRBuild
		agg.SliceFillRatios = append(agg.SliceFillRatios, st.SliceFillRatios...)
		agg.SliceBits = append(agg.SliceBits, st.SliceBits...)
		agg.MTBits, agg.MRBits = max(agg.MTBits, st.MTBits), max(agg.MRBits, st.MRBits)
		agg.SlicePruningPower = append(agg.SlicePruningPower, st.SlicePruningPower...)
		agg.MTFillRatio += st.MTFillRatio
		agg.MRFillRatio += st.MRFillRatio
	}
	if len(per) > 0 {
		agg.MTFillRatio /= float64(len(per))
		agg.MRFillRatio /= float64(len(per))
	}
	return agg
}
