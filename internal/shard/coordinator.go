package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"tind/internal/core"
	"tind/internal/history"
	"tind/internal/index"
)

// Leg is one shard of the partition as the Coordinator sees it: the
// shard's contribution to a batch — a lone query is a batch of one —
// always in global AttrIDs. There are exactly two transports — *Single in
// process, and internal/router's HTTP client over the network — plus the
// FaultLeg decorator the drills wrap around either.
type Leg interface {
	QueryBatch(ctx context.Context, batch []index.BatchQuery, o index.BatchOptions) ([]index.Result, error)
	// Stats is best-effort: a leg that cannot answer reports the zero
	// value.
	Stats() index.BuildStats
}

// ErrLegUnavailable marks a leg failure its shard caused — unreachable,
// overloaded, answering garbage — as opposed to one the request caused.
// A leg wraps it to say "the other shards' answers are still good": the
// Coordinator then keeps the siblings running and degrades to a partial
// result. Only the network transport ever has reason to; an in-process
// leg cannot be unavailable, so its calls never end partial.
var ErrLegUnavailable = errors.New("shard: leg unavailable")

// Coordinator is the one scatter-gather of the system: it fans a call out
// to every leg of the partition, classifies the legs' failures, and
// merges the answers under the monolith's exact semantics. Because every
// per-shard answer is exact (the pruning chain is lossless per shard),
// the gathered answer is exact too; ShardedIndex and router.Router are
// this type over in-process and HTTP legs respectively, so the
// differential guarantee (sharded ≡ monolith ≡ oracle) holds for both by
// construction.
//
// Failure taxonomy of one scatter, per leg error:
//
//   - wraps ErrLegUnavailable — degradable: siblings keep running, the
//     leg is marked in Stats.PerShard, and the call returns the healthy
//     legs' answer with index.ErrPartialResult (or a plain error when
//     every leg is unavailable — partial means "some shards", never
//     "none").
//   - wraps index.ErrCanceled — the caller went away, or collateral of a
//     sibling's failure; reported only when nothing else failed.
//   - anything else — fatal root cause (bad request, deadline, engine
//     fault): siblings are canceled at their next context poll instead of
//     finishing work nobody will use, and the call returns the typed
//     error, never a partial result.
type Coordinator struct {
	legs  []Leg
	attrs int // size of the partitioned corpus: global ids are [0, attrs)
}

// NewCoordinator returns a Coordinator over the given legs; legs[s] is
// shard s of a corpus of attrs attributes.
func NewCoordinator(legs []Leg, attrs int) *Coordinator {
	return &Coordinator{legs: legs, attrs: attrs}
}

// NumShards returns N.
func (c *Coordinator) NumShards() int { return len(c.legs) }

// scatter runs fn for every leg concurrently under a child of ctx that
// the first non-degradable failure cancels, and returns the per-leg
// errors (prefixed with the shard) and wall times. Each Single holds its
// own RWMutex, and Refresh locks one shard at a time, so it only blocks
// the leg running against that shard.
func (c *Coordinator) scatter(ctx context.Context, fn func(ctx context.Context, s int, leg Leg) error) ([]error, []time.Duration) {
	errs := make([]error, len(c.legs))
	times := make([]time.Duration, len(c.legs))
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for s, leg := range c.legs {
		wg.Add(1)
		go func(s int, leg Leg) {
			defer wg.Done()
			t0 := time.Now()
			err := fn(sctx, s, leg)
			times[s] = time.Since(t0)
			if err != nil {
				errs[s] = fmt.Errorf("shard %d: %w", s, err)
				if !errors.Is(err, ErrLegUnavailable) {
					cancel()
				}
			}
		}(s, leg)
	}
	wg.Wait()
	return errs, times
}

// rootCause picks, among the per-leg errors of one scatter, the one that
// explains it, and counts the legs that failed. Its order of precedence —
// fatal, then canceled, then unavailable — is what keeps an induced
// sibling cancellation from masking the root cause.
func rootCause(errs []error) (cause error, failed int) {
	rank := 0
	for _, err := range errs {
		if err == nil {
			continue
		}
		failed++
		r := 3
		switch {
		case errors.Is(err, ErrLegUnavailable):
			r = 1
		case errors.Is(err, index.ErrCanceled):
			r = 2
		}
		if r > rank {
			cause, rank = err, r
		}
	}
	return cause, failed
}

// outcome turns the per-leg errors of one scatter into the call's error
// per the Coordinator's failure taxonomy.
func outcome(errs []error) error {
	cause, failed := rootCause(errs)
	switch {
	case cause == nil || !errors.Is(cause, ErrLegUnavailable):
		return cause
	case failed == len(errs):
		return fmt.Errorf("all %d shards unavailable: %w", len(errs), cause)
	default:
		mPartialResults.Inc()
		return fmt.Errorf("%d/%d shards unavailable (%v): %w", failed, len(errs), cause, index.ErrPartialResult)
	}
}

// Query serves the index.Index query contract over the partition as a
// QueryBatch of one entry, so a lone query is one leg call per shard and
// gathers exactly like a batch entry. On partial degradation the result
// covers the healthy shards and the error wraps index.ErrPartialResult; on
// any other failure only the gathered statistics come back, with the
// failed legs marked in Stats.PerShard.
func (c *Coordinator) Query(ctx context.Context, q *history.History, o index.QueryOptions) (index.Result, error) {
	results, err := c.QueryBatch(ctx, []index.BatchQuery{{Query: q, Options: o}}, index.BatchOptions{})
	if err != nil && !errors.Is(err, index.ErrPartialResult) {
		return index.Result{Stats: results[0].Stats}, err
	}
	return results[0], err
}

// QueryBatch serves index.Index.QueryBatch over the partition. Every leg
// receives the whole batch — each shard resolves ownership per entry and
// runs its entries as one index.QueryBatch, under one lock acquisition —
// and each entry gathers on its own (see gather).
// Results come back in batch order; every entry's Elapsed/Timings.Total
// is the batch's scatter-gather wall time. A leg covers the whole batch,
// so every entry's PerShard names the same legs with the same wall times
// and errors, but the shard-local timings and funnel of that entry alone.
func (c *Coordinator) QueryBatch(ctx context.Context, batch []index.BatchQuery, o index.BatchOptions) ([]index.Result, error) {
	start := time.Now()
	if o.Workers < 0 {
		return nil, fmt.Errorf("%w: negative batch workers %d", index.ErrInvalidOptions, o.Workers)
	}
	if len(batch) == 0 {
		return nil, nil
	}
	perLeg := make([][]index.Result, len(c.legs))
	errs, times := c.scatter(ctx, func(ctx context.Context, s int, leg Leg) (err error) {
		perLeg[s], err = leg.QueryBatch(ctx, batch, o)
		return err
	})
	elapsed := time.Since(start)
	results := make([]index.Result, len(batch))
	entry := make([]index.Result, len(c.legs))
	for i := range batch {
		for s := range entry {
			entry[s] = index.Result{}
			if i < len(perLeg[s]) {
				entry[s] = perLeg[s][i]
			}
		}
		results[i] = gather(batch[i].Options, entry, times, errs, elapsed)
	}
	return results, outcome(errs)
}

// AllPairsContext discovers the complete tIND set the way the monolith
// does: every attribute as a forward query, index.BlockEntries of them at
// a time, each block one scatter of leg.QueryBatch — so on the router a
// block is one /shard/batch round trip per shard. workers is each leg's
// index.BatchOptions.Workers (≤ 0 means GOMAXPROCS; the network transport
// ignores it and the shard server decides). An entry's per-leg answers are
// disjoint and ascending, so the pairs come out ascending by LHS then RHS,
// the monolith's order.
//
// Discovery is all-or-nothing — the complete-set semantics of §4.2.2
// leave no meaningful partial — so a block with any failed leg ends the
// run with that block's root cause: an unavailable leg surfaces as its
// ErrLegUnavailable, never as index.ErrPartialResult.
func (c *Coordinator) AllPairsContext(ctx context.Context, p core.Params, workers int) ([]index.Pair, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	defer func() { mAllPairsSeconds.ObserveDuration(time.Since(start)) }()

	o := index.BatchOptions{Workers: max(workers, 0)}
	fwd := index.QueryOptions{Mode: index.ModeForward, Params: p}
	batch := make([]index.BatchQuery, min(c.attrs, index.BlockEntries))
	perLeg := make([][]index.Result, len(c.legs))
	var pairs []index.Pair
	for lo := 0; lo < c.attrs; lo += len(batch) {
		// Between blocks no query is running to report an ended context.
		if err := index.CtxErr(ctx); err != nil {
			return nil, err
		}
		block := batch[:min(len(batch), c.attrs-lo)]
		for i := range block {
			block[i] = index.BatchQuery{ByID: true, ID: history.AttrID(lo + i), Options: fwd}
		}
		errs, _ := c.scatter(ctx, func(ctx context.Context, s int, leg Leg) (err error) {
			perLeg[s], err = leg.QueryBatch(ctx, block, o)
			return err
		})
		if err, _ := rootCause(errs); err != nil {
			return nil, err
		}
		for i := range block {
			at := len(pairs)
			for s := range perLeg {
				for _, rhs := range perLeg[s][i].IDs {
					pairs = append(pairs, index.Pair{LHS: block[i].ID, RHS: rhs})
				}
			}
			slices.SortFunc(pairs[at:], func(a, b index.Pair) int { return cmp.Compare(a.RHS, b.RHS) })
		}
	}
	return pairs, nil
}

// Stats aggregates the legs' build statistics into one monolith-shaped
// summary via AggregateStats.
func (c *Coordinator) Stats() index.BuildStats {
	per := make([]index.BuildStats, len(c.legs))
	c.scatter(context.Background(), func(_ context.Context, s int, leg Leg) error {
		per[s] = leg.Stats()
		return nil
	})
	return AggregateStats(per)
}

// gatherStats folds the per-leg statistics of one scattered query into
// the monolith-shaped total, with the scatter-gather wall time as Elapsed
// and Timings.Total, and attributes each leg in PerShard (leg wall time
// from times, shard-local timings and funnel from the shard's own stats)
// so stragglers stay visible after the merge. A non-nil errs[s] marks leg
// s as failed (ShardStat.Err): its partial funnel still folds into the
// sums — that work really ran — but the marker keeps a dead shard
// distinguishable from a legitimately fast "0 candidates" leg in
// attribution, wide events and partial results. The per-mode obs counters
// are maintained by the shard queries themselves.
func gatherStats(perLeg []index.Result, times []time.Duration, errs []error, elapsed time.Duration) index.QueryStats {
	var st index.QueryStats
	st.PerShard = make([]index.ShardStat, len(perLeg))
	for s := range perLeg {
		src := &perLeg[s].Stats
		st.Add(src)
		st.PerShard[s] = index.ShardStat{
			Shard:             s,
			Elapsed:           times[s],
			Timings:           src.Timings,
			InitialCandidates: src.InitialCandidates,
			Validated:         src.Validated,
			Results:           src.Results,
		}
		if errs[s] != nil {
			st.PerShard[s].Err = errs[s].Error()
		}
	}
	st.Elapsed = elapsed
	st.Timings.Total = elapsed
	return st
}

// gather merges the per-leg results of one scattered query into the
// global answer under the monolith's exact semantics:
//
//   - ModeForward/ModeReverse: the per-shard result sets are disjoint by
//     construction (each shard only answers for its own attributes), so
//     the gathered answer is their union, sorted ascending.
//   - ModeTopK: each shard ranks its own top K by the monolith's one
//     exact scan; any global top-K attribute is necessarily inside its
//     shard's top K, so the merge of the per-shard rankings in
//     index.RankOrder, truncated to K, is the exact global ranking. A
//     shard's Results in PerShard counts the entries it contributed to
//     that ranking, so the legs' results add up to the answer in every
//     mode.
//
// Failed legs carry no results and are marked in Stats.PerShard.
func gather(o index.QueryOptions, perLeg []index.Result, times []time.Duration, errs []error, elapsed time.Duration) index.Result {
	res := index.Result{Stats: gatherStats(perLeg, times, errs, elapsed)}
	if o.Mode == index.ModeTopK {
		var ranked []index.Ranked
		for s := range perLeg {
			ranked = append(ranked, perLeg[s].Ranked...)
		}
		slices.SortFunc(ranked, index.RankOrder)
		if len(ranked) > o.K {
			ranked = ranked[:o.K]
		}
		for s := range perLeg {
			kept := 0
			for _, r := range perLeg[s].Ranked { // non-empty only if ranked is
				if index.RankOrder(r, ranked[len(ranked)-1]) <= 0 {
					kept++
				}
			}
			res.Stats.PerShard[s].Results = kept
		}
		res.Ranked = ranked
		res.Stats.Results = len(ranked)
		return res
	}
	var ids []history.AttrID
	for s := range perLeg {
		ids = append(ids, perLeg[s].IDs...)
	}
	slices.Sort(ids)
	res.IDs = ids
	res.Stats.Results = len(ids)
	return res
}
