package shard

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/timeline"
)

// global is the corpus-wide dataset (ids 0..n-1) every shard of one
// partition resolves query attributes against, plus the lock guarding
// its mutable surface — attribute table entries and the horizon.
// RefreshWith (the live-ingestion path) swaps updated history clones
// into ds under the write half; resolution synchronizes on the read
// half. The histories themselves are immutable once published, so the
// lock pins only the pointer swap, never a query's traversal of version
// data. The shards of a ShardedIndex share one; a Single built alone
// owns its own.
type global struct {
	mu sync.RWMutex
	ds *history.Dataset
}

// attr resolves the current history of a global attribute under the
// resolution lock; the returned history is immutable.
func (g *global) attr(id history.AttrID) *history.History {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.ds.Attr(id)
}

// Single is one shard of the partition: the shard's complete index over
// its own dataset of clones, plus the global-id table that maps between
// corpus ids and shard-local ids. It is the only type that knows local
// ids exist — every method takes and returns global AttrIDs — which makes
// it the in-process Leg of the Coordinator and the engine behind the
// shard-server deployment (internal/router) at once: BuildSingle uses
// exactly the per-shard configuration Build uses, so a process serving
// one shard answers identically to the same shard inside an in-process
// ShardedIndex.
type Single struct {
	// ShardID identifies the slot: this is shard ShardID of an
	// opt.Shards-way partition under opt.Seed.
	ShardID int

	opt     Options
	g       *global          // the full corpus (for queries by attributes this shard does not own)
	sds     *history.Dataset // the shard's own dataset of clones
	idx     *index.Index
	globals []history.AttrID // local id -> global id, ascending
}

// carve prepares shard s of the partition of g.ds — everything but the
// index, which build adds. The owned global attributes are cloned into a
// dataset of their own (sharing version data and the value dictionary),
// in ascending global id order, so a local id is the position of its
// global id in globals. Cloning is needed because dataset registration
// assigns ids in place — one History pointer cannot carry a global and a
// shard-local id at once.
func carve(g *global, opt Options, s int, globals []history.AttrID) (*Single, error) {
	sds := g.ds.Derive(g.ds.Horizon())
	for _, id := range globals {
		if _, err := sds.Add(g.ds.Attr(id).Clone()); err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return &Single{ShardID: s, opt: opt, g: g, sds: sds, globals: globals}, nil
}

// build builds the shard's index. The seed is perturbed by the shard
// number so slice selection differs across shards; everything else
// applies verbatim — for Build and BuildSingle alike, so a shard built
// alone is bit-for-bit the shard a ShardedIndex builds in-process.
func (sg *Single) build() error {
	iopt := sg.opt.Index
	iopt.Seed += int64(sg.ShardID)
	idx, err := index.Build(sg.sds, iopt)
	if err != nil {
		return fmt.Errorf("shard %d: %w", sg.ShardID, err)
	}
	sg.idx = idx
	return nil
}

// BuildSingle builds shard s of the opt.Shards-way partition of ds,
// alone. The full dataset stays referenced — a scatter leg for an
// attribute another shard owns queries with that attribute's history,
// so the shard server needs every history even though it indexes only
// its own — but the index (the expensive part: matrices, Bloom filters,
// slices) covers only the owned 1/N slice of the corpus.
func BuildSingle(ds *history.Dataset, opt Options, s int) (*Single, error) {
	if opt.Shards < 1 {
		return nil, fmt.Errorf("%w: shard count %d < 1", index.ErrInvalidOptions, opt.Shards)
	}
	if s < 0 || s >= opt.Shards {
		return nil, fmt.Errorf("%w: shard id %d out of range [0,%d)", index.ErrInvalidOptions, s, opt.Shards)
	}
	sg, err := carve(&global{ds: ds}, opt, s, OwnedGlobals(ds.Len(), opt.Seed, opt.Shards, s))
	if err != nil {
		return nil, err
	}
	return sg, sg.build()
}

// NumShards returns N, the partition width this shard is one slot of.
func (sg *Single) NumShards() int { return sg.opt.Shards }

// Seed returns the partition seed driving the ShardOf assignment.
func (sg *Single) Seed() int64 { return sg.opt.Seed }

// Dataset returns the full global dataset the shard was carved from.
func (sg *Single) Dataset() *history.Dataset { return sg.g.ds }

// Globals returns the owned global ids in local order (ascending).
func (sg *Single) Globals() []history.AttrID { return sg.globals }

// Stats returns the shard index's build statistics.
func (sg *Single) Stats() index.BuildStats { return sg.idx.Stats() }

// Local maps a global id to the shard-local id, reporting whether this
// shard owns it.
func (sg *Single) Local(g history.AttrID) (history.AttrID, bool) {
	if g < 0 || int(g) >= sg.g.ds.Len() {
		return 0, false
	}
	if history.ShardOf(g, sg.opt.Seed, sg.opt.Shards) != sg.ShardID {
		return 0, false
	}
	local := sort.Search(len(sg.globals), func(i int) bool { return sg.globals[i] >= g })
	return history.AttrID(local), true
}

// owns reports whether q is one of this shard's own attributes and under
// which local id. An owned query must run by local id (a ByID batch entry)
// so the shard resolves its own — possibly refresh-swapped — clone under
// its read lock and self-exclusion still fires; every other query runs
// with q itself, whose global pointer matches nothing in the shard's
// dataset.
//
// Besides pointer identity, a history carrying a valid global id whose
// provenance matches the current table entry also counts as "the
// dataset's own attribute": under live ingestion the entry is swapped
// for an updated clone (RefreshWith), and a caller that resolved q just
// before the swap must still hit the by-local-id path — the owning
// shard then answers from its freshest clone and self-exclusion keeps
// firing. Anything else — an external history, or one that merely reuses
// an id — is not owned.
func (sg *Single) owns(q *history.History) (history.AttrID, bool) {
	local, ok := sg.Local(q.ID())
	if !ok {
		return 0, false
	}
	if cur := sg.g.attr(q.ID()); cur != q && cur.Meta() != q.Meta() {
		return 0, false
	}
	return local, true
}

// globalize maps a result's shard-local ids to global AttrIDs in place.
func (sg *Single) globalize(res index.Result) index.Result {
	for i, id := range res.IDs {
		res.IDs[i] = sg.globals[id]
	}
	for i := range res.Ranked {
		res.Ranked[i].ID = sg.globals[res.Ranked[i].ID]
	}
	return res
}

// Attr resolves a global attribute id to its current history — how a
// caller holding only an id (the wire protocol) names a query.
func (sg *Single) Attr(id history.AttrID) (*history.History, error) {
	if id < 0 || int(id) >= sg.g.ds.Len() {
		return nil, fmt.Errorf("%w: attribute %d out of range [0,%d)", index.ErrInvalidOptions, id, sg.g.ds.Len())
	}
	return sg.g.attr(id), nil
}

// QueryBatch answers this shard's contribution to a batch, in global ids:
// the whole batch runs as one index.QueryBatch, so every entry reads the
// same snapshot of the shard. ByID entries name global attributes; each
// entry lands on the shard by the ownership rule (owns). A failed batch
// still returns the statistics accumulated up to the abort.
func (sg *Single) QueryBatch(ctx context.Context, batch []index.BatchQuery, o index.BatchOptions) ([]index.Result, error) {
	local := make([]index.BatchQuery, len(batch))
	for i, bq := range batch {
		q := bq.Query
		if bq.ByID {
			var err error
			if q, err = sg.Attr(bq.ID); err != nil {
				return nil, index.EntryErr(len(batch), i, err)
			}
		} else if q == nil {
			return nil, fmt.Errorf("%w: batch entry %d: nil query history", index.ErrInvalidOptions, i)
		}
		if id, ok := sg.owns(q); ok {
			local[i] = index.BatchQuery{ByID: true, ID: id, Options: bq.Options}
		} else {
			local[i] = index.BatchQuery{Query: q, Options: bq.Options}
		}
	}
	results, err := sg.idx.QueryBatch(ctx, local, o)
	for i := range results {
		results[i] = sg.globalize(results[i])
	}
	return results, err
}

// Refresh incorporates appended history data for the given global
// attributes into this shard: the caller has already applied the appends
// to the global dataset and extended its horizon; ids this shard does not
// own are validated and otherwise ignored. The refresh is atomic under
// the shard's own lock (index.RefreshWith): the shard's dataset horizon
// is extended, fresh clones of the changed global histories are swapped
// in over the stale ones, and the shard's matrices refresh — all before
// any query can observe the shard again. Serialized by the caller against
// other refreshes.
func (sg *Single) Refresh(changed []history.AttrID, newHorizon timeline.Time) error {
	sg.g.mu.RLock()
	got := sg.g.ds.Horizon()
	sg.g.mu.RUnlock()
	if got != newHorizon {
		return fmt.Errorf("shard: dataset horizon %d does not match newHorizon %d", got, newHorizon)
	}
	var locals []history.AttrID
	for _, id := range changed {
		if id < 0 || int(id) >= sg.g.ds.Len() {
			return fmt.Errorf("shard: changed attribute %d out of range", id)
		}
		if local, ok := sg.Local(id); ok {
			locals = append(locals, local)
		}
	}
	if len(locals) == 0 {
		// No owned attribute changed: keep the previous weight horizon —
		// ShardedIndex.Refresh says why answers stay exact (DESIGN.md §9).
		return nil
	}
	return sg.idx.RefreshWith(newHorizon, func(sds *history.Dataset) ([]history.AttrID, error) {
		if err := sds.ExtendHorizon(newHorizon); err != nil {
			return nil, err
		}
		for _, local := range locals {
			if err := sds.Replace(local, sg.g.attr(sg.globals[local]).Clone()); err != nil {
				return nil, err
			}
		}
		return locals, nil
	})
}
