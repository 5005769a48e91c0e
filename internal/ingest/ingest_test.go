package ingest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tind/internal/bloom"
	"tind/internal/core"
	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/obs"
	"tind/internal/oracle"
	"tind/internal/persist"
	"tind/internal/shard"
	"tind/internal/timeline"
	"tind/internal/wal"
)

const (
	genSeed    = int64(733)
	genAttrs   = 20
	genHorizon = timeline.Time(80)
)

// genDataset deterministically regenerates the base corpus — the stand-in
// for "load the corpus from disk" in recovery tests.
func genDataset(t testing.TB) *history.Dataset {
	t.Helper()
	c, err := datagen.Generate(datagen.Config{
		Seed:           genSeed,
		Horizon:        genHorizon,
		Attributes:     genAttrs,
		AttrsPerDomain: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c.Dataset
}

func buildMono(t testing.TB, ds *history.Dataset, horizon timeline.Time) *index.Index {
	t.Helper()
	x, err := index.Build(ds, monoOptions(horizon))
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func monoOptions(horizon timeline.Time) index.Options {
	return index.Options{
		Bloom:   bloom.Params{M: 256, K: 2},
		Slices:  3,
		Params:  core.Params{Epsilon: 3.0, Delta: 2, Weight: timeline.Uniform(horizon)},
		Reverse: true,
		Seed:    17,
	}
}

func buildSharded(t testing.TB, ds *history.Dataset, horizon timeline.Time, shards int) *shard.ShardedIndex {
	t.Helper()
	sx, err := shard.Build(ds, shard.Options{Shards: shards, Seed: 9, Index: monoOptions(horizon)})
	if err != nil {
		t.Fatal(err)
	}
	return sx
}

// deltaGen produces valid delta batches against an evolving shadow of
// the dataset state, without touching the dataset itself — exactly what
// an external ingest client sees.
type deltaGen struct {
	r       *rand.Rand
	ends    map[history.AttrID]timeline.Time
	vals    map[history.AttrID][]string
	horizon timeline.Time
	rounds  int
}

func newDeltaGen(ds *history.Dataset, seed int64) *deltaGen {
	g := &deltaGen{
		r:       rand.New(rand.NewSource(seed)),
		ends:    make(map[history.AttrID]timeline.Time),
		vals:    make(map[history.AttrID][]string),
		horizon: ds.Horizon(),
	}
	for i := 0; i < ds.Len(); i++ {
		h := ds.Attr(history.AttrID(i))
		g.ends[history.AttrID(i)] = h.ObservedUntil()
		g.vals[history.AttrID(i)] = ds.Dict().Strings(h.At(h.ObservedUntil() - 1))
	}
	return g
}

// round advances the horizon by step and returns one valid batch: the
// horizon extension plus appends (mutated value sets) and observation
// extensions for a deterministic-random subset of attributes.
func (g *deltaGen) round(step timeline.Time) []wal.Record {
	g.rounds++
	g.horizon += step
	recs := []wal.Record{{Type: wal.TypeExtendHorizon, Horizon: g.horizon}}
	for id := range g.ends {
		switch g.r.Intn(3) {
		case 0: // change the value set and append
			vals := append([]string(nil), g.vals[id]...)
			if len(vals) > 1 && g.r.Intn(2) == 0 {
				vals = vals[:len(vals)-1]
			} else {
				vals = append(vals, fmt.Sprintf("live-%d-%d", g.rounds, id))
			}
			recs = append(recs, wal.Record{
				Type: wal.TypeAppend, Attr: id,
				Start: g.ends[id], End: g.horizon, Values: vals,
			})
			g.vals[id] = vals
			g.ends[id] = g.horizon
		case 1: // attribute persists unchanged
			recs = append(recs, wal.Record{Type: wal.TypeExtendObservation, Attr: id, End: g.horizon})
			g.ends[id] = g.horizon
		}
		// case 2: attribute vanishes from observation — no record.
	}
	return recs
}

// assertEngineParity pins every query mode of got against a fresh build
// and against the exact oracle over the same dataset.
func assertEngineParity(t *testing.T, ds *history.Dataset, got interface {
	Query(ctx context.Context, q *history.History, o index.QueryOptions) (index.Result, error)
}, horizon timeline.Time) {
	t.Helper()
	p := core.Params{Epsilon: 3.0, Delta: 2, Weight: timeline.Uniform(horizon)}
	rebuilt := buildMono(t, ds, horizon)
	ctx := context.Background()
	for i := 0; i < ds.Len(); i++ {
		q := ds.Attr(history.AttrID(i))
		for _, mode := range []index.Mode{index.ModeForward, index.ModeReverse} {
			a, err := got.Query(ctx, q, index.QueryOptions{Mode: mode, Params: p})
			if err != nil {
				t.Fatal(err)
			}
			b, err := rebuilt.Query(ctx, q, index.QueryOptions{Mode: mode, Params: p})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(a.IDs) != fmt.Sprint(b.IDs) {
				t.Fatalf("q=%d %v: live %v, rebuilt %v", i, mode, a.IDs, b.IDs)
			}
			var want []history.AttrID
			if mode == index.ModeForward {
				want = oracle.ForwardSet(ds, q, p)
			} else {
				want = oracle.ReverseSet(ds, q, p)
			}
			if fmt.Sprint(a.IDs) != fmt.Sprint(want) {
				t.Fatalf("q=%d %v: live %v, oracle %v", i, mode, a.IDs, want)
			}
		}
		a, err := got.Query(ctx, q, index.QueryOptions{Mode: index.ModeTopK, K: 5, Params: p})
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.TopK(ds, q, p, 5)
		if len(a.Ranked) != len(want) {
			t.Fatalf("q=%d topk: %d ranked, oracle %d", i, len(a.Ranked), len(want))
		}
		for j := range want {
			if a.Ranked[j].ID != want[j].ID {
				t.Fatalf("q=%d topk[%d]: %d, oracle %d", i, j, a.Ranked[j].ID, want[j].ID)
			}
		}
	}
}

func TestIngestLifecycleMonolith(t *testing.T) {
	ds := genDataset(t)
	x := buildMono(t, ds, genHorizon)
	log, err := wal.Open(filepath.Join(t.TempDir(), "ingest.wal"), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	in := New(x, ds, log, Options{MaxDirty: 1 << 20, MaxDirtyAge: time.Hour})

	g := newDeltaGen(ds, 1)
	total := 0
	for round := 0; round < 6; round++ {
		batch := g.round(4)
		if err := in.Submit(batch); err != nil {
			t.Fatal(err)
		}
		total += len(batch)
	}
	st := in.Stats()
	if st.PendingRecords != total || st.SubmittedRecords != int64(total) {
		t.Fatalf("pending %d submitted %d, want %d", st.PendingRecords, st.SubmittedRecords, total)
	}
	if st.WALLagBytes <= 0 || st.OldestPendingAge <= 0 {
		t.Fatalf("staleness gauges not engaged: lag %d age %v", st.WALLagBytes, st.OldestPendingAge)
	}
	if err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	st = in.Stats()
	if st.PendingRecords != 0 || st.AppliedRecords != int64(total) || st.WALLagBytes != 0 {
		t.Fatalf("after flush: pending %d applied %d lag %d", st.PendingRecords, st.AppliedRecords, st.WALLagBytes)
	}
	assertEngineParity(t, ds, x, g.horizon)
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if err := in.Submit(g.round(4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
}

func TestIngestBackgroundLoopSharded(t *testing.T) {
	ds := genDataset(t)
	sx := buildSharded(t, ds, genHorizon, 3)
	log, err := wal.Open(filepath.Join(t.TempDir(), "ingest.wal"), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	// Tiny age bound and tick so the loop applies without manual Flush.
	in := New(sx, ds, log, Options{MaxDirty: 8, MaxDirtyAge: 20 * time.Millisecond, FlushInterval: 5 * time.Millisecond})
	in.Start()

	g := newDeltaGen(ds, 2)
	total := 0
	for round := 0; round < 5; round++ {
		batch := g.round(3)
		if err := in.Submit(batch); err != nil {
			t.Fatal(err)
		}
		total += len(batch)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := in.Stats(); st.PendingRecords == 0 && st.AppliedRecords == int64(total) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("loop did not drain: %+v", in.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	assertEngineParity(t, ds, sx, g.horizon)
}

func TestSubmitValidation(t *testing.T) {
	ds := genDataset(t)
	x := buildMono(t, ds, genHorizon)
	log, err := wal.Open(filepath.Join(t.TempDir(), "ingest.wal"), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	in := New(x, ds, log, Options{MaxDirty: 1 << 20, MaxDirtyAge: time.Hour})
	end0 := ds.Attr(0).ObservedUntil()

	bad := [][]wal.Record{
		{{Type: wal.TypeAppend, Attr: history.AttrID(ds.Len()), Start: genHorizon, End: genHorizon + 1, Values: []string{"x"}}},
		{{Type: wal.TypeAppend, Attr: -1, Start: genHorizon, End: genHorizon + 1}},
		{{Type: wal.TypeExtendHorizon, Horizon: genHorizon - 1}},
		{{Type: wal.TypeExtendHorizon, Horizon: timeline.MaxHorizon + 1}},
		{{Type: wal.TypeAppend, Attr: 0, Start: end0 - 2, End: genHorizon, Values: []string{"x"}}},
		{{Type: wal.TypeAppend, Attr: 0, Start: end0, End: genHorizon + 50, Values: []string{"x"}}}, // beyond horizon
		{{Type: wal.TypeExtendObservation, Attr: 0, End: end0 - 1}},
		{{Type: wal.Type(99)}},
		// Atomicity: a valid horizon extension followed by an invalid
		// append must reject the whole batch.
		{
			{Type: wal.TypeExtendHorizon, Horizon: genHorizon + 10},
			{Type: wal.TypeAppend, Attr: 0, Start: end0 - 2, End: genHorizon + 10, Values: []string{"x"}},
		},
	}
	for i, batch := range bad {
		if err := in.Submit(batch); !errors.Is(err, ErrRejected) {
			t.Fatalf("batch %d: error %v does not match ErrRejected", i, err)
		}
	}
	if log.Size() != int64(wal.HeaderSize) || log.Records() != 0 {
		t.Fatalf("rejected batches reached the WAL: size %d records %d", log.Size(), log.Records())
	}
	st := in.Stats()
	if st.SubmittedRecords != 0 || st.RejectedRecords == 0 {
		t.Fatalf("stats after rejections: %+v", st)
	}
	// The rejected horizon extension must not have leaked into pending
	// state: an append beyond the *current* horizon still rejects.
	if err := in.Submit([]wal.Record{{Type: wal.TypeAppend, Attr: 0, Start: end0, End: genHorizon + 10, Values: []string{"x"}}}); !errors.Is(err, ErrRejected) {
		t.Fatalf("scratch horizon leaked out of a rejected batch: %v", err)
	}
}

func walFsyncs() float64 { return obs.Default().Snapshot().Value("tind_wal_fsync_total") }

// TestSubmitBatchIsOneFsync pins that an acknowledged batch is one WAL
// append: N records cost one write and one fsync, not N.
func TestSubmitBatchIsOneFsync(t *testing.T) {
	ds := genDataset(t)
	x := buildMono(t, ds, genHorizon)
	log, err := wal.Open(filepath.Join(t.TempDir(), "ingest.wal"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	in := New(x, ds, log, Options{MaxDirty: 1 << 20, MaxDirtyAge: time.Hour})
	defer in.Close()

	batch := newDeltaGen(ds, 5).round(4)
	if len(batch) < 4 {
		t.Fatalf("batch of %d records is too small to tell one fsync from many", len(batch))
	}
	before := walFsyncs()
	if err := in.Submit(batch); err != nil {
		t.Fatal(err)
	}
	if got := walFsyncs() - before; got != 1 {
		t.Fatalf("a %d-record batch cost %v fsyncs, want 1", len(batch), got)
	}
	if log.Records() != len(batch) {
		t.Fatalf("WAL holds %d records, want %d", log.Records(), len(batch))
	}
}

// unencodableFixture is an ingester over a SyncAlways WAL and a function
// returning a batch of three records that pass validation, the last of
// which carries the given value. A value over the WAL's 1 MiB string
// limit makes the batch one the log cannot encode.
func unencodableFixture(t *testing.T) (*Ingester, *history.Dataset, *index.Index, *wal.Log, func(last string) []wal.Record) {
	t.Helper()
	ds := genDataset(t)
	x := buildMono(t, ds, genHorizon)
	log, err := wal.Open(filepath.Join(t.TempDir(), "ingest.wal"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	in := New(x, ds, log, Options{MaxDirty: 1 << 20, MaxDirtyAge: time.Hour})
	t.Cleanup(func() { in.Close() })
	h := genHorizon + 2
	batch := func(last string) []wal.Record {
		return []wal.Record{
			{Type: wal.TypeExtendHorizon, Horizon: h},
			{Type: wal.TypeAppend, Attr: 0, Start: ds.Attr(0).ObservedUntil(), End: h, Values: []string{"fixed-0"}},
			{Type: wal.TypeAppend, Attr: 1, Start: ds.Attr(1).ObservedUntil(), End: h, Values: []string{last}},
		}
	}
	return in, ds, x, log, batch
}

var oversizedValue = strings.Repeat("x", 1<<20+1)

// TestUnencodableBatchLeavesNoTrace: a batch that passes validation but
// holds a record the WAL cannot encode is rejected before anything is
// logged — no bytes, no pending records, no fsync.
func TestUnencodableBatchLeavesNoTrace(t *testing.T) {
	in, _, _, log, batch := unencodableFixture(t)
	size, fsyncs := log.Size(), walFsyncs()
	if err := in.Submit(batch(oversizedValue)); !errors.Is(err, ErrRejected) {
		t.Fatalf("oversized value: error %v does not match ErrRejected", err)
	}
	if st := in.Stats(); log.Size() != size || st.PendingRecords != 0 || walFsyncs() != fsyncs || st.RejectedRecords != 3 {
		t.Fatalf("rejected batch left a trace: WAL %d→%d bytes, %d pending, %v fsyncs, %d rejected",
			size, log.Size(), st.PendingRecords, walFsyncs()-fsyncs, st.RejectedRecords)
	}
}

// TestCorrectedResendAppliesAndReplays: after an unencodable batch is
// refused, the client's corrected resend is acknowledged, applies and
// replays cleanly. Had the refused batch's prefix been logged, the
// resend would duplicate it: the flush would fail, and so would every
// later replay of the log.
func TestCorrectedResendAppliesAndReplays(t *testing.T) {
	in, ds, x, log, batch := unencodableFixture(t)
	if err := in.Submit(batch(oversizedValue)); err == nil {
		t.Fatal("oversized value accepted")
	}
	if err := in.Submit(batch("fixed-1")); err != nil {
		t.Fatal(err)
	}
	if err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	h := genHorizon + 2
	replayed := genDataset(t)
	if _, n, err := Replay(replayed, log, 0, nil); err != nil || n != 3 {
		t.Fatalf("replay: %d records, error %v; want 3, nil", n, err)
	}
	if replayed.Horizon() != h {
		t.Fatalf("replayed horizon %d, want %d", replayed.Horizon(), h)
	}
	for id := history.AttrID(0); id < 2; id++ {
		if got, want := replayed.Attr(id).ObservedUntil(), ds.Attr(id).ObservedUntil(); got != want || got != h {
			t.Fatalf("attribute %d: replayed end %d, applied %d, want %d", id, got, want, h)
		}
	}
	assertEngineParity(t, ds, x, h)
}

// TestKillMidIngestRecoveryParity is the crash-recovery acceptance test:
// a server ingests durably, snapshots mid-stream, keeps ingesting, and
// dies without warning (the WAL even gets a torn tail). Recovery =
// snapshot + WAL-suffix replay must answer every query mode exactly like
// a from-scratch build over a dataset that replayed the full WAL — and
// both must match the exact oracle.
func TestKillMidIngestRecoveryParity(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "ingest.wal")
	snapPath := filepath.Join(dir, "snapshot")
	const shards = 3

	// --- Victim process: ingest, snapshot, ingest more, die. ---
	var finalHorizon timeline.Time
	{
		ds := genDataset(t)
		sx := buildSharded(t, ds, genHorizon, shards)
		log, err := wal.Open(walPath, wal.Options{Sync: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		// No background loop: applies happen only on Flush, so exactly
		// which records are applied vs merely durable is deterministic.
		in := New(sx, ds, log, Options{
			MaxDirty: 1 << 20, MaxDirtyAge: time.Hour,
			Snapshot: SnapshotConfig{Path: snapPath, Every: 1},
		})
		g := newDeltaGen(ds, 3)
		for round := 0; round < 3; round++ {
			if err := in.Submit(g.round(4)); err != nil {
				t.Fatal(err)
			}
		}
		// Apply + snapshot covering the first three rounds.
		if err := in.Flush(); err != nil {
			t.Fatal(err)
		}
		st := in.Stats()
		if st.Snapshots != 1 || st.SnapshotOffset != st.AppliedOffset {
			t.Fatalf("snapshot bookkeeping: %+v", st)
		}
		// More durable-but-unapplied rounds, then the crash: no Flush, no
		// Close. SyncAlways means every acknowledged record is on disk.
		for round := 0; round < 3; round++ {
			if err := in.Submit(g.round(4)); err != nil {
				t.Fatal(err)
			}
		}
		finalHorizon = g.horizon
		log.Close()
		// The kill tears a partial frame onto the tail.
		f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0x21, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	// --- Restart: snapshot + WAL-suffix replay. ---
	dsRec, snapOffset, err := persist.OpenSnapshot(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if snapOffset <= int64(wal.HeaderSize) {
		t.Fatalf("snapshot covers no WAL prefix: offset %d", snapOffset)
	}
	logRec, err := wal.Open(walPath, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer logRec.Close()
	want, err := logRec.CountFrom(snapOffset)
	if err != nil {
		t.Fatal(err)
	}
	if want == 0 {
		t.Fatal("no WAL suffix to replay — the crash window is empty")
	}
	var progress []int
	end, n, err := Replay(dsRec, logRec, snapOffset, func(replayed int, _ int64) {
		progress = append(progress, replayed)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != want || end != logRec.Size() {
		t.Fatalf("replayed %d/%d records to offset %d/%d", n, want, end, logRec.Size())
	}
	if len(progress) != n || progress[len(progress)-1] != n {
		t.Fatalf("progress callback saw %v for %d records", progress, n)
	}
	if dsRec.Horizon() != finalHorizon {
		t.Fatalf("recovered horizon %d, want %d", dsRec.Horizon(), finalHorizon)
	}
	sxRec := buildSharded(t, dsRec, finalHorizon, shards)

	// --- Ground truth: full WAL replay into the pristine base corpus,
	// from-scratch build. ---
	dsFull := genDataset(t)
	if _, _, err := Replay(dsFull, logRec, 0, nil); err != nil {
		t.Fatal(err)
	}
	sxFull := buildSharded(t, dsFull, finalHorizon, shards)

	p := core.Params{Epsilon: 3.0, Delta: 2, Weight: timeline.Uniform(finalHorizon)}
	ctx := context.Background()
	for i := 0; i < dsFull.Len(); i++ {
		qRec, qFull := dsRec.Attr(history.AttrID(i)), dsFull.Attr(history.AttrID(i))
		for _, mode := range []index.Mode{index.ModeForward, index.ModeReverse, index.ModeTopK} {
			o := index.QueryOptions{Mode: mode, Params: p}
			if mode == index.ModeTopK {
				o.K = 5
			}
			a, err := sxRec.Query(ctx, qRec, o)
			if err != nil {
				t.Fatal(err)
			}
			b, err := sxFull.Query(ctx, qFull, o)
			if err != nil {
				t.Fatal(err)
			}
			if mode == index.ModeTopK {
				if len(a.Ranked) != len(b.Ranked) {
					t.Fatalf("q=%d topk: recovered %d ranked, rebuilt %d", i, len(a.Ranked), len(b.Ranked))
				}
				for j := range a.Ranked {
					if a.Ranked[j].ID != b.Ranked[j].ID {
						t.Fatalf("q=%d topk[%d]: recovered %d, rebuilt %d", i, j, a.Ranked[j].ID, b.Ranked[j].ID)
					}
				}
			} else if fmt.Sprint(a.IDs) != fmt.Sprint(b.IDs) {
				t.Fatalf("q=%d %v: recovered %v, rebuilt %v", i, mode, a.IDs, b.IDs)
			}
		}
	}
	// Oracle pin on the recovered dataset itself.
	assertEngineParity(t, dsRec, sxRec, finalHorizon)
}

// TestIngestConcurrentSubmitQuery is the library-level half of the
// ingest-vs-query race hammer: a submitter streams delta batches through
// a live ingester (background loop applying aggressively) while query
// workers hit both engines throughout. Run under -race in CI.
func TestIngestConcurrentSubmitQuery(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"monolith", 0},
		{"sharded", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := genDataset(t)
			var eng Engine
			var q interface {
				Query(ctx context.Context, q *history.History, o index.QueryOptions) (index.Result, error)
			}
			if tc.shards == 0 {
				x := buildMono(t, ds, genHorizon)
				eng, q = x, x
			} else {
				sx := buildSharded(t, ds, genHorizon, tc.shards)
				eng, q = sx, sx
			}
			log, err := wal.Open(filepath.Join(t.TempDir(), "ingest.wal"), wal.Options{Sync: wal.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			defer log.Close()
			in := New(eng, ds, log, Options{MaxDirty: 4, MaxDirtyAge: time.Millisecond, FlushInterval: time.Millisecond})
			in.Start()

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(stop)
				g := newDeltaGen(ds, 4)
				for round := 0; round < 15; round++ {
					if err := in.Submit(g.round(2)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			p := core.Params{Epsilon: 3.0, Delta: 2, Weight: timeline.Uniform(genHorizon)}
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					ctx := context.Background()
					modes := []index.Mode{index.ModeForward, index.ModeReverse, index.ModeTopK}
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						var qh *history.History
						in.View(func(ds *history.Dataset) {
							qh = ds.Attr(history.AttrID((i*5 + w) % ds.Len()))
						})
						o := index.QueryOptions{Mode: modes[(i+w)%3], Params: p}
						if o.Mode == index.ModeTopK {
							o.K = 4
						}
						if _, err := q.Query(ctx, qh, o); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if err := in.Close(); err != nil {
				t.Fatal(err)
			}
			st := in.Stats()
			if st.PendingRecords != 0 || st.AppliedRecords != st.SubmittedRecords {
				t.Fatalf("drain incomplete: %+v", st)
			}
			in.View(func(d *history.Dataset) {
				assertEngineParity(t, d, q, d.Horizon())
			})
		})
	}
}
