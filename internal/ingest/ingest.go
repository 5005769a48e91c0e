// Package ingest implements durable live ingestion of history deltas:
// the write path of a tIND server that keeps answering queries while the
// corpus evolves.
//
// Every accepted batch of deltas is one append to a write-ahead log
// (internal/wal), fsynced per the log's policy *before* Submit returns —
// durability precedes acknowledgement. Accepted deltas then sit in an
// in-memory pending queue until a refresh trigger fires (too many
// pending records, or the oldest one exceeding its age bound), at which
// point the batch is folded into the serving engine through
// RefreshWith: the global dataset is mutated clone-and-replace under the
// engine's resolution lock and the affected shards refresh their
// matrices. Between acknowledgement and apply the server is *boundedly
// stale*: queries answer exactly with respect to the corpus as of the
// last apply, and the staleness is observable (PendingRecords,
// OldestPendingAge, WALLagBytes in Stats and the tind_ingest_* gauges)
// so operators can alert on contract violations.
//
// Crash recovery composes with internal/persist snapshots: Replay folds
// the WAL suffix past a snapshot's offset back into the loaded
// dataset before the engine is built, so a process killed mid-ingest
// restarts with exactly the acknowledged deltas — no more, no less.
package ingest

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"tind/internal/history"
	"tind/internal/obs"
	"tind/internal/persist"
	"tind/internal/timeline"
	"tind/internal/wal"
)

var (
	mSubmitted = obs.Default().Counter("tind_ingest_submitted_records_total",
		"History delta records accepted and made WAL-durable.")
	mRejected = obs.Default().Counter("tind_ingest_rejected_records_total",
		"History delta records rejected at validation.")
	mApplied = obs.Default().Counter("tind_ingest_applied_records_total",
		"History delta records folded into the serving engine.")
	mApplies = obs.Default().Counter("tind_ingest_applies_total",
		"Refresh batches applied to the serving engine.")
	mSnapshots = obs.Default().Counter("tind_ingest_snapshots_total",
		"Snapshots written by the ingest loop.")
	gPending = obs.Default().Gauge("tind_ingest_pending_records",
		"Acknowledged records not yet folded into the serving engine (WAL lag in records).")
	gDirtyAge = obs.Default().Gauge("tind_ingest_oldest_pending_seconds",
		"Age of the oldest acknowledged-but-unapplied record (max dirty age).")
	gWALLag = obs.Default().Gauge("tind_ingest_wal_lag_bytes",
		"Bytes of WAL past the last applied offset.")
	mReplayApplied = obs.Default().Counter("tind_ingest_replay_applied_total",
		"WAL records folded into the dataset during startup replay.")
	mApplySeconds = obs.Default().Histogram("tind_ingest_apply_seconds",
		"Latency of folding one pending batch into the serving engine (RefreshWith under the dataset lock).",
		obs.LatencyBuckets)
)

// ErrRejected is wrapped by every validation failure in Submit: the
// batch was not logged and not applied. Servers map it to a client
// error.
var ErrRejected = errors.New("ingest: delta rejected")

// ErrClosed reports a Submit or Flush after Close.
var ErrClosed = errors.New("ingest: ingester closed")

// Engine is the serving-index surface the ingester folds deltas into.
// Both *index.Index and *shard.ShardedIndex satisfy it: prepare runs
// with attribute resolution excluded, mutates the global dataset, and
// returns the changed attribute ids for the matrix refresh that follows.
type Engine interface {
	RefreshWith(newHorizon timeline.Time, prepare func(ds *history.Dataset) ([]history.AttrID, error)) error
}

// SnapshotConfig enables periodic snapshots from the ingest loop.
type SnapshotConfig struct {
	Path  string // snapshot file (persist.WriteSnapshot)
	Every int    // write a snapshot after this many applied records; 0 disables
}

// Options tunes the refresh triggers. Zero values take the defaults.
type Options struct {
	// MaxDirty applies the pending batch once it holds this many records.
	// Default 256.
	MaxDirty int
	// MaxDirtyAge applies the pending batch once its oldest record is
	// this old — the bounded-staleness contract. Default 2s.
	MaxDirtyAge time.Duration
	// FlushInterval is the background loop's poll tick. Default
	// MaxDirtyAge/4, clamped to [50ms, 1s].
	FlushInterval time.Duration
	// Snapshot, if Every > 0, makes the loop write crash-recovery
	// snapshots so restarts replay only a bounded WAL suffix.
	Snapshot SnapshotConfig
}

func (o *Options) defaults() {
	if o.MaxDirty <= 0 {
		o.MaxDirty = 256
	}
	if o.MaxDirtyAge <= 0 {
		o.MaxDirtyAge = 2 * time.Second
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = o.MaxDirtyAge / 4
		if o.FlushInterval < 50*time.Millisecond {
			o.FlushInterval = 50 * time.Millisecond
		}
		if o.FlushInterval > time.Second {
			o.FlushInterval = time.Second
		}
	}
}

// Stats is a point-in-time snapshot of the ingestion state.
type Stats struct {
	PendingRecords   int           // acknowledged, not yet applied
	OldestPendingAge time.Duration // max dirty age; 0 when nothing pends
	SubmittedRecords int64
	RejectedRecords  int64
	AppliedRecords   int64
	Applies          int64
	WALSize          int64 // committed WAL extent
	AppliedOffset    int64 // WAL offset covered by the serving engine
	WALLagBytes      int64 // WALSize - AppliedOffset
	Snapshots        int64
	SnapshotOffset   int64  // WAL offset covered by the latest snapshot
	LastError        string // most recent apply/snapshot failure; empty when healthy
}

// Ingester owns the write path: validation, WAL durability, the pending
// queue, the background apply loop and optional snapshotting. One
// ingester per serving engine; all methods are safe for concurrent use.
type Ingester struct {
	eng Engine
	ds  *history.Dataset
	log *wal.Log
	opt Options

	// dsMu guards host reads of the global dataset (View) against the
	// apply path's clone-and-replace mutation. Engines additionally
	// guard their own internal resolution.
	dsMu sync.RWMutex

	// applyMu serializes apply/snapshot work across the loop and Flush.
	applyMu sync.Mutex

	mu             sync.Mutex // guards everything below
	pending        []wal.Record
	pendingOffset  int64                            // WAL offset after the last pending batch
	pendingEnd     map[history.AttrID]timeline.Time // observation end incl. every logged append
	pendingHorizon timeline.Time                    // horizon incl. pending extensions
	firstPending   time.Time                        // arrival of the oldest pending record
	appliedOffset  int64
	snapOffset     int64
	sinceSnap      int // records applied since the last snapshot
	submitted      int64
	rejected       int64
	applied        int64
	applies        int64
	snapshots      int64
	lastErr        error // most recent apply/snapshot failure, nil after success
	started        bool
	closed         bool

	// folded leading pending records (guarded by mu) are already in the
	// dataset: a failed apply ran their prepare, then the engine's refresh
	// failed. foldedIDs are the ids they changed, so the retry refreshes
	// them without folding the records in a second time.
	folded    int
	foldedIDs []history.AttrID

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// New builds an ingester over an engine, its global dataset and an open
// WAL. The log's current extent is taken as already folded into the
// dataset — callers replay any unapplied suffix (Replay) before building
// the engine and calling New. Call Start to launch the apply loop.
func New(eng Engine, ds *history.Dataset, log *wal.Log, opt Options) *Ingester {
	opt.defaults()
	return &Ingester{
		eng:            eng,
		ds:             ds,
		log:            log,
		opt:            opt,
		pendingEnd:     make(map[history.AttrID]timeline.Time),
		pendingHorizon: ds.Horizon(),
		appliedOffset:  log.Size(),
		snapOffset:     log.Size(),
		kick:           make(chan struct{}, 1),
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
	}
}

// Start launches the background apply loop. Optional: an ingester
// without a loop still accepts Submits and applies on Flush — tests and
// batch loaders drive it that way.
func (in *Ingester) Start() {
	in.mu.Lock()
	if in.started || in.closed {
		in.mu.Unlock()
		return
	}
	in.started = true
	in.mu.Unlock()
	go in.loop()
}

// Close stops the loop (if running) and applies any remaining pending
// records. The WAL stays open — the caller owns it.
func (in *Ingester) Close() error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return nil
	}
	in.closed = true
	started := in.started
	in.mu.Unlock()
	close(in.stop)
	if started {
		<-in.done
	}
	return in.apply()
}

// View runs fn with the global dataset guarded against concurrent
// apply-path mutation. Hosts route every direct dataset read (attribute
// resolution, stats, horizon) through here.
func (in *Ingester) View(fn func(ds *history.Dataset)) {
	in.dsMu.RLock()
	defer in.dsMu.RUnlock()
	fn(in.ds)
}

// Submit validates a batch of deltas, appends it to the WAL (durable per
// the log's sync policy) and enqueues it for apply. The batch is atomic:
// a validation failure anywhere, or a record the WAL cannot encode,
// rejects the whole batch with ErrRejected and nothing is logged. On
// success the records are crash-durable; they become query-visible at
// the next refresh trigger.
func (in *Ingester) Submit(recs []wal.Record) error {
	if len(recs) == 0 {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return ErrClosed
	}

	// Validate the whole batch against dataset ⊕ pending ⊕ batch prefix
	// before logging anything.
	scratchEnd := make(map[history.AttrID]timeline.Time)
	scratchHorizon := in.pendingHorizon
	in.dsMu.RLock()
	err := func() error {
		for i := range recs {
			if err := in.validateLocked(&recs[i], scratchEnd, &scratchHorizon); err != nil {
				return fmt.Errorf("record %d: %w", i, err)
			}
		}
		return nil
	}()
	in.dsMu.RUnlock()
	if err != nil {
		in.reject(len(recs))
		return err
	}

	// Durable before acknowledged: the batch is one WAL append — one
	// write, one fsync — so it is logged whole or not at all.
	off, err := in.log.Append(recs...)
	if errors.Is(err, wal.ErrInvalidRecord) {
		in.reject(len(recs))
		return fmt.Errorf("%w: %w", ErrRejected, err)
	}
	if err != nil {
		return fmt.Errorf("ingest: WAL append: %w", err)
	}
	if len(in.pending) == 0 {
		in.firstPending = time.Now()
	}
	in.pending = append(in.pending, recs...)
	in.pendingOffset = off
	for id, end := range scratchEnd {
		in.pendingEnd[id] = end
	}
	in.pendingHorizon = scratchHorizon
	in.submitted += int64(len(recs))
	mSubmitted.Add(int64(len(recs)))
	gPending.Set(float64(len(in.pending)))
	gWALLag.Set(float64(in.log.Size() - in.appliedOffset))

	if len(in.pending) >= in.opt.MaxDirty {
		select {
		case in.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// reject counts a rejected batch. Caller holds mu.
func (in *Ingester) reject(n int) {
	in.rejected += int64(n)
	mRejected.Add(int64(n))
}

// validateLocked checks one record against the dataset plus the pending
// state plus the scratch state of earlier records in the same batch.
// Caller holds mu and dsMu.RLock.
func (in *Ingester) validateLocked(rec *wal.Record, scratchEnd map[history.AttrID]timeline.Time, scratchHorizon *timeline.Time) error {
	attrEnd := func(id history.AttrID) timeline.Time {
		if end, ok := scratchEnd[id]; ok {
			return end
		}
		if end, ok := in.pendingEnd[id]; ok {
			return end
		}
		return in.ds.Attr(id).ObservedUntil()
	}
	checkAttr := func(id history.AttrID) error {
		if id < 0 || int(id) >= in.ds.Len() {
			return fmt.Errorf("%w: attribute %d out of range [0, %d)", ErrRejected, id, in.ds.Len())
		}
		return nil
	}
	switch rec.Type {
	case wal.TypeExtendHorizon:
		if rec.Horizon < *scratchHorizon {
			return fmt.Errorf("%w: horizon %d shrinks current %d", ErrRejected, rec.Horizon, *scratchHorizon)
		}
		if rec.Horizon > timeline.MaxHorizon {
			return fmt.Errorf("%w: horizon %d exceeds the maximum %d", ErrRejected, rec.Horizon, timeline.MaxHorizon)
		}
		*scratchHorizon = rec.Horizon
	case wal.TypeAppend:
		if err := checkAttr(rec.Attr); err != nil {
			return err
		}
		cur := attrEnd(rec.Attr)
		if rec.Start < cur {
			return fmt.Errorf("%w: attribute %d append at %d before observation end %d", ErrRejected, rec.Attr, rec.Start, cur)
		}
		if rec.End <= rec.Start {
			return fmt.Errorf("%w: attribute %d new end %d not after start %d", ErrRejected, rec.Attr, rec.End, rec.Start)
		}
		if rec.End > *scratchHorizon {
			return fmt.Errorf("%w: attribute %d end %d beyond horizon %d (extend the horizon first)", ErrRejected, rec.Attr, rec.End, *scratchHorizon)
		}
		scratchEnd[rec.Attr] = rec.End
	case wal.TypeExtendObservation:
		if err := checkAttr(rec.Attr); err != nil {
			return err
		}
		cur := attrEnd(rec.Attr)
		if rec.End < cur {
			return fmt.Errorf("%w: attribute %d observation end shrinks %d to %d", ErrRejected, rec.Attr, cur, rec.End)
		}
		if rec.End > *scratchHorizon {
			return fmt.Errorf("%w: attribute %d end %d beyond horizon %d (extend the horizon first)", ErrRejected, rec.Attr, rec.End, *scratchHorizon)
		}
		scratchEnd[rec.Attr] = rec.End
	default:
		return fmt.Errorf("%w: unknown record type %d", ErrRejected, rec.Type)
	}
	return nil
}

// Flush synchronously folds every pending record into the engine.
func (in *Ingester) Flush() error {
	in.mu.Lock()
	closed := in.closed
	in.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return in.apply()
}

// Stats reports the current ingestion state and refreshes the gauges.
func (in *Ingester) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := Stats{
		PendingRecords:   len(in.pending),
		SubmittedRecords: in.submitted,
		RejectedRecords:  in.rejected,
		AppliedRecords:   in.applied,
		Applies:          in.applies,
		WALSize:          in.log.Size(),
		AppliedOffset:    in.appliedOffset,
		Snapshots:        in.snapshots,
		SnapshotOffset:   in.snapOffset,
	}
	if in.lastErr != nil {
		st.LastError = in.lastErr.Error()
	}
	st.WALLagBytes = st.WALSize - st.AppliedOffset
	if len(in.pending) > 0 {
		st.OldestPendingAge = time.Since(in.firstPending)
	}
	gPending.Set(float64(st.PendingRecords))
	gDirtyAge.Set(st.OldestPendingAge.Seconds())
	gWALLag.Set(float64(st.WALLagBytes))
	return st
}

// loop is the background applier: every tick it refreshes the staleness
// gauges and applies when a trigger fires; a kick from Submit applies
// immediately on the count trigger.
func (in *Ingester) loop() {
	defer close(in.done)
	t := time.NewTicker(in.opt.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-in.stop:
			return
		case <-in.kick:
			in.apply()
		case <-t.C:
			in.mu.Lock()
			n := len(in.pending)
			age := time.Duration(0)
			if n > 0 {
				age = time.Since(in.firstPending)
			}
			in.mu.Unlock()
			gPending.Set(float64(n))
			gDirtyAge.Set(age.Seconds())
			if n >= in.opt.MaxDirty || (n > 0 && age >= in.opt.MaxDirtyAge) {
				in.apply()
			}
		}
	}
}

// apply folds the pending batch — whatever it holds — into the engine.
// Trigger policy lives in the callers (loop, Flush, Close).
func (in *Ingester) apply() error {
	in.applyMu.Lock()
	defer in.applyMu.Unlock()

	in.mu.Lock()
	if len(in.pending) == 0 {
		in.mu.Unlock()
		return nil
	}
	// pendingEnd stays: observation ends only grow, so each entry bounds
	// the next record on its attribute whether this batch applies or not,
	// and a Submit between here and the apply validates against it.
	batch, endOffset := in.pending, in.pendingOffset
	first, folded, foldedIDs := in.firstPending, in.folded, in.foldedIDs
	in.pending = nil
	target := in.pendingHorizon
	in.mu.Unlock()

	var changed []history.AttrID
	prepared := false
	applyStart := time.Now()
	in.dsMu.Lock()
	err := in.eng.RefreshWith(target, func(ds *history.Dataset) ([]history.AttrID, error) {
		ids, err := applyRecords(ds, batch[folded:], false)
		if err != nil {
			return nil, err
		}
		changed, prepared = mergeIDs(foldedIDs, ids), true
		return changed, nil
	})
	in.dsMu.Unlock()
	applyDur := time.Since(applyStart)
	mApplySeconds.ObserveDuration(applyDur)
	ev := obs.Event{
		Kind:     obs.EventIngestApply,
		Records:  len(batch),
		Duration: applyDur,
		WALFsync: in.log.LastFsync(),
	}
	if err != nil {
		ev.ErrorClass = "apply_failed"
	}
	obs.Events().Record(ev)
	if err != nil {
		// Validation admitted the batch, so an apply failure is a bug or
		// an I/O-level problem. The batch goes back to the front of the
		// queue with its age, ahead of anything submitted since, and the
		// next apply retries it; the applied offset stays put.
		err = fmt.Errorf("ingest: apply: %w", err)
		in.mu.Lock()
		in.pending = append(batch[:len(batch):len(batch)], in.pending...)
		in.firstPending = first
		if prepared {
			in.folded, in.foldedIDs = len(batch), changed
		}
		in.lastErr = err
		nowPending := len(in.pending)
		in.mu.Unlock()
		gPending.Set(float64(nowPending))
		return err
	}

	in.mu.Lock()
	in.folded, in.foldedIDs = 0, nil
	in.appliedOffset = endOffset
	in.applied += int64(len(batch))
	in.applies++
	in.lastErr = nil
	in.sinceSnap += len(batch)
	wantSnap := in.opt.Snapshot.Every > 0 && in.sinceSnap >= in.opt.Snapshot.Every
	if wantSnap {
		in.sinceSnap = 0
	}
	nowPending := len(in.pending)
	lag := in.log.Size() - endOffset
	in.mu.Unlock()
	mApplied.Add(int64(len(batch)))
	mApplies.Inc()
	gPending.Set(float64(nowPending))
	if nowPending == 0 {
		gDirtyAge.Set(0)
	}
	gWALLag.Set(float64(lag))

	if wantSnap {
		if serr := in.snapshot(endOffset); serr != nil {
			serr = fmt.Errorf("ingest: snapshot: %w", serr)
			in.mu.Lock()
			in.lastErr = serr
			in.mu.Unlock()
			return serr
		}
	}
	return nil
}

// snapshot writes a crash-recovery snapshot covering the WAL up to
// offset. Runs under applyMu, so the dataset is quiescent with respect
// to the apply path; host and query reads are safe concurrently because
// published histories are immutable.
func (in *Ingester) snapshot(offset int64) error {
	cfg := in.opt.Snapshot
	snapStart := time.Now()
	in.dsMu.RLock()
	err := persist.WriteSnapshot(in.ds, cfg.Path, offset)
	in.dsMu.RUnlock()
	ev := obs.Event{Kind: obs.EventSnapshot, Duration: time.Since(snapStart)}
	if err != nil {
		ev.ErrorClass = "snapshot_failed"
		obs.Events().Record(ev)
		return err
	}
	obs.Events().Record(ev)
	in.mu.Lock()
	in.snapshots++
	in.snapOffset = offset
	in.mu.Unlock()
	mSnapshots.Inc()
	return nil
}

// applyRecords folds WAL records into the dataset in log order. With
// inPlace false (live apply under an engine's resolution lock) touched
// histories are cloned, mutated and swapped so published pointers stay
// immutable; the changed ids come back sorted for deterministic refresh
// order. With inPlace true (startup replay, no concurrent readers)
// histories mutate directly.
func applyRecords(ds *history.Dataset, recs []wal.Record, inPlace bool) ([]history.AttrID, error) {
	// The target horizon is the max over the batch; extend first so
	// appends up to it validate.
	target := ds.Horizon()
	for i := range recs {
		if recs[i].Type == wal.TypeExtendHorizon && recs[i].Horizon > target {
			target = recs[i].Horizon
		}
	}
	if target > ds.Horizon() {
		if err := ds.ExtendHorizon(target); err != nil {
			return nil, err
		}
	}
	touched := make(map[history.AttrID]*history.History)
	resolve := func(id history.AttrID) (*history.History, error) {
		if id < 0 || int(id) >= ds.Len() {
			return nil, fmt.Errorf("wal record for attribute %d out of range [0, %d)", id, ds.Len())
		}
		if h, ok := touched[id]; ok {
			return h, nil
		}
		h := ds.Attr(id)
		if !inPlace {
			h = h.Clone()
		}
		touched[id] = h
		return h, nil
	}
	for i := range recs {
		rec := &recs[i]
		var err error
		switch rec.Type {
		case wal.TypeExtendHorizon:
			// Folded into target above.
		case wal.TypeAppend:
			var h *history.History
			if h, err = resolve(rec.Attr); err == nil {
				err = h.Append(rec.Start, ds.Dict().InternAll(rec.Values), rec.End)
			}
		case wal.TypeExtendObservation:
			var h *history.History
			if h, err = resolve(rec.Attr); err == nil {
				err = h.ExtendObservation(rec.End)
			}
		default:
			err = fmt.Errorf("unknown wal record type %d", rec.Type)
		}
		if err != nil {
			return nil, fmt.Errorf("record %d (%s): %w", i, rec.Type, err)
		}
	}
	changed := make([]history.AttrID, 0, len(touched))
	for id, h := range touched {
		if !inPlace {
			if err := ds.Replace(id, h); err != nil {
				return nil, err
			}
		}
		changed = append(changed, id)
	}
	sort.Slice(changed, func(i, j int) bool { return changed[i] < changed[j] })
	return changed, nil
}

// mergeIDs returns the ascending union of two ascending id lists.
func mergeIDs(a, b []history.AttrID) []history.AttrID {
	if len(a) == 0 {
		return b
	}
	out := append(append([]history.AttrID(nil), a...), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

// Replay folds the WAL suffix starting at offset from (the offset the
// loaded snapshot covers; <= 0 means the whole log) into the dataset in
// place — the startup path, before any engine exists and before
// concurrent readers. progress, if non-nil, is called after every record
// with the count replayed so far and the byte offset reached; servers
// surface it on their readiness endpoint. Returns the end offset —
// the appliedOffset the ingester starts from — and the record count.
func Replay(ds *history.Dataset, log *wal.Log, from int64, progress func(replayed int, offset int64)) (int64, int, error) {
	n := 0
	end, err := log.ReplayFrom(from, func(rec wal.Record, off int64) error {
		if _, aerr := applyRecords(ds, []wal.Record{rec}, true); aerr != nil {
			return fmt.Errorf("ingest: replay at offset %d: %w", off, aerr)
		}
		n++
		mReplayApplied.Inc()
		if progress != nil {
			progress(n, off)
		}
		return nil
	})
	if err != nil {
		return end, n, err
	}
	return end, n, nil
}
