package shard

import (
	"fmt"

	"tind/internal/history"
	"tind/internal/timeline"
)

// Refresh incorporates appended history data into the partition without
// a rebuild. Each shard refreshes under its own lock (Single.Refresh): a
// shard owning changed attributes re-reads their columns, and every shard
// advances its weight horizon, exactly as the monolith's Refresh does. The
// same rules as the monolith apply: the index weighting must be constant,
// M_T and M_R bits only ever grow, and the refreshed attributes' slice
// columns are refilled exactly.
//
// As with the monolith, the caller must have already applied the history
// appends to the global dataset's attributes and extended its horizon.
// Appends in place must not run concurrently with queries of the changed
// attributes themselves, whose scatter legs read those histories; every
// other query, on every shard, reads only the index's copy of each column
// (index.BuildOver), which changes only under the shard's lock here.
func (sx *ShardedIndex) Refresh(changed []history.AttrID, newHorizon timeline.Time) error {
	// Every shard validates the horizon and the whole changed list before
	// touching anything, so a bad call fails on shard 0 with the partition
	// untouched; shard order keeps error behavior reproducible.
	for _, sg := range sx.singles {
		if err := sg.Refresh(changed, newHorizon); err != nil {
			return fmt.Errorf("shard %d: %w", sg.ShardID, err)
		}
	}
	return nil
}

// RefreshWith is the live-ingestion entry point, mirroring the
// monolith's index.RefreshWith signature so both engines satisfy one
// interface: prepare mutates the global dataset — swapping updated
// history clones over stale entries and extending the horizon — under
// the resolution write lock, then the shards refresh via Refresh.
// Published histories are immutable (mutation is clone-and-replace), so
// in-flight queries holding pre-swap pointers stay consistent; the write
// lock pins only the table swap, never the per-shard matrix refreshes
// that follow. Callers serialize RefreshWith against other refreshes,
// exactly as for Refresh.
func (sx *ShardedIndex) RefreshWith(newHorizon timeline.Time, prepare func(ds *history.Dataset) ([]history.AttrID, error)) error {
	sx.g.mu.Lock()
	changed, err := prepare(sx.g.ds)
	sx.g.mu.Unlock()
	if err != nil {
		return err
	}
	return sx.Refresh(changed, newHorizon)
}
