package shard

import (
	"context"
	"fmt"
	"sync"

	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/timeline"
)

// global is the corpus-wide dataset (ids 0..n-1) every shard of one
// partition indexes its attributes from and resolves query attributes
// against, plus the lock guarding its mutable surface — attribute table
// entries and the horizon. RefreshWith (the live-ingestion path) swaps
// updated history clones into ds under the write half; resolution
// synchronizes on the read half. The histories themselves are immutable
// once published, so the lock pins only the pointer swap, never a query's
// traversal of version data. The shards of a ShardedIndex share one; a
// Single built alone owns its own.
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

// Single is one shard of the partition: an index over the global
// attributes the shard owns, read straight from the global dataset, so it
// speaks global AttrIDs throughout. That makes it the in-process Leg of
// the Coordinator and the engine behind the shard-server deployment
// (internal/router) at once: BuildSingle uses exactly the per-shard
// configuration Build uses, so a process serving one shard answers
// identically to the same shard inside an in-process ShardedIndex.
type Single struct {
	// ShardID identifies the slot: this is shard ShardID of an
	// opt.Shards-way partition under opt.Seed.
	ShardID int

	opt     Options
	g       *global // the full corpus (for queries by attributes this shard does not own)
	idx     *index.Index
	globals []history.AttrID // the owned global ids, ascending
}

// build builds the shard's index over its owned attributes. The seed is
// perturbed by the shard number so slice selection differs across shards;
// everything else applies verbatim — for Build and BuildSingle alike, so
// a shard built alone is bit-for-bit the shard a ShardedIndex builds
// in-process.
func (sg *Single) build() error {
	iopt := sg.opt.Index
	iopt.Seed += int64(sg.ShardID)
	idx, err := index.BuildOver(sg.g.ds, sg.globals, iopt)
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
	sg := &Single{ShardID: s, opt: opt, g: &global{ds: ds},
		globals: OwnedGlobals(ds.Len(), opt.Seed, opt.Shards, s)}
	return sg, sg.build()
}

// NumShards returns N, the partition width this shard is one slot of.
func (sg *Single) NumShards() int { return sg.opt.Shards }

// Seed returns the partition seed driving the ShardOf assignment.
func (sg *Single) Seed() int64 { return sg.opt.Seed }

// Dataset returns the full global dataset the shard was carved from.
func (sg *Single) Dataset() *history.Dataset { return sg.g.ds }

// Globals returns the owned global ids, ascending.
func (sg *Single) Globals() []history.AttrID { return sg.globals }

// Stats returns the shard index's build statistics.
func (sg *Single) Stats() index.BuildStats { return sg.idx.Stats() }

// owns reports whether q is one of this shard's own attributes. An owned
// query runs by id (a ByID batch entry), so the shard resolves the history
// its index holds under its read lock and self-exclusion fires; every
// other query runs with q itself.
//
// Besides pointer identity, a history whose provenance matches the
// current table entry of its id also counts as "the dataset's own
// attribute": under live ingestion the entry is swapped for an updated
// clone (RefreshWith), and a caller that resolved q just before the swap
// must still run by id — the owning shard then answers from its freshest
// column and self-exclusion keeps firing. Anything else — an external
// history, or one that merely reuses an id — is not owned.
func (sg *Single) owns(q *history.History) bool {
	id := q.ID()
	if id < 0 || int(id) >= sg.g.ds.Len() ||
		history.ShardOf(id, sg.opt.Seed, sg.opt.Shards) != sg.ShardID {
		return false
	}
	cur := sg.g.attr(id)
	return cur == q || cur.Meta() == q.Meta()
}

// Attr resolves a global attribute id to its current history — how a
// caller holding only an id (the wire protocol) names a query.
func (sg *Single) Attr(id history.AttrID) (*history.History, error) {
	if id < 0 || int(id) >= sg.g.ds.Len() {
		return nil, fmt.Errorf("%w: attribute %d out of range [0,%d)", index.ErrInvalidOptions, id, sg.g.ds.Len())
	}
	return sg.g.attr(id), nil
}

// QueryBatch answers this shard's contribution to a batch: the whole
// batch runs as one index.QueryBatch, so every entry reads the same
// snapshot of the shard. ByID entries name any global attribute; each
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
		if sg.owns(q) {
			local[i] = index.BatchQuery{ByID: true, ID: q.ID(), Options: bq.Options}
		} else {
			local[i] = index.BatchQuery{Query: q, Options: bq.Options}
		}
	}
	return sg.idx.QueryBatch(ctx, local, o)
}

// Refresh incorporates appended history data for the given global
// attributes into this shard: the caller has already applied the appends
// to the global dataset and extended its horizon; ids this shard does not
// own are validated and otherwise ignored, so an id out of range fails
// every shard before any refreshes. The shard's index re-reads the owned
// changed columns from the global dataset and advances its weight horizon
// — on every refresh, as the monolith's does — atomically under its own
// lock, after checking newHorizon against the dataset's. Serialized by the
// caller against other refreshes.
func (sg *Single) Refresh(changed []history.AttrID, newHorizon timeline.Time) error {
	var owned []history.AttrID
	for _, id := range changed {
		if id < 0 || int(id) >= sg.g.ds.Len() {
			return fmt.Errorf("shard: changed attribute %d out of range", id)
		}
		if history.ShardOf(id, sg.opt.Seed, sg.opt.Shards) == sg.ShardID {
			owned = append(owned, id)
		}
	}
	return sg.idx.Refresh(owned, newHorizon)
}
