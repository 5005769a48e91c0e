package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"tind/internal/history"
	"tind/internal/index"
	"tind/internal/persist"
	"tind/internal/timeline"
	"tind/internal/wal"
)

// failingEngine is an Engine whose every refresh fails before prepare
// runs, so the dataset never sees the batch.
type failingEngine struct{}

func (failingEngine) RefreshWith(timeline.Time, func(*history.Dataset) ([]history.AttrID, error)) error {
	return errors.New("refresh failed")
}

// TestFailedApplyKeepsObservationEnds: once an append on X over [e, e+5)
// is in the WAL, a later append on X from e overlaps it, even when the
// apply of the first failed and the dataset still ends X at e. Acking the
// second would log a record that replay cannot fold in, so every restart
// would fail on it.
func TestFailedApplyKeepsObservationEnds(t *testing.T) {
	ds := genDataset(t)
	log, err := wal.Open(filepath.Join(t.TempDir(), "ingest.wal"), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	in := New(failingEngine{}, ds, log, Options{MaxDirty: 1 << 20, MaxDirtyAge: time.Hour})

	const x = history.AttrID(0)
	e := ds.Attr(x).ObservedUntil()
	h := genHorizon + 10
	appendX := wal.Record{Type: wal.TypeAppend, Attr: x, Start: e, End: e + 5, Values: []string{"first"}}
	if err := in.Submit([]wal.Record{{Type: wal.TypeExtendHorizon, Horizon: h}, appendX}); err != nil {
		t.Fatal(err)
	}
	if err := in.Flush(); err == nil {
		t.Fatal("flush through a failing engine succeeded")
	}
	if ds.Attr(x).ObservedUntil() != e {
		t.Fatalf("the failed apply moved attribute %d's end to %d", x, ds.Attr(x).ObservedUntil())
	}
	again := appendX
	again.Values = []string{"second"}
	if err := in.Submit([]wal.Record{again}); !errors.Is(err, ErrRejected) {
		t.Errorf("append from %d after a logged append to %d: error %v, want ErrRejected", e, e+5, err)
	}

	replayed := genDataset(t)
	if _, n, err := Replay(replayed, log, 0, nil); err != nil || n != 2 {
		t.Fatalf("replay: %d records, error %v; want 2, nil", n, err)
	}
	if got := replayed.Attr(x).ObservedUntil(); got != e+5 {
		t.Fatalf("replayed attribute %d ends at %d, want %d", x, got, e+5)
	}
}

// flakyEngine fails its first refresh, then delegates to a real index.
// With afterPrepare the failing refresh runs prepare first, so the
// dataset already holds the batch when the engine reports the failure.
type flakyEngine struct {
	*index.Index
	ds           *history.Dataset
	afterPrepare bool
	failed       bool
}

func (e *flakyEngine) RefreshWith(h timeline.Time, prepare func(*history.Dataset) ([]history.AttrID, error)) error {
	if e.failed {
		return e.Index.RefreshWith(h, prepare)
	}
	e.failed = true
	if e.afterPrepare {
		if _, err := prepare(e.ds); err != nil {
			return err
		}
	}
	return errors.New("refresh failed")
}

// TestFailedApplyRetriesBatch: a failed apply keeps its batch pending,
// ahead of batches submitted after it, and the next Flush applies it
// exactly once — whether the engine failed before or after folding the
// batch into the dataset. The engine then answers like one built over a
// replay of the WAL.
func TestFailedApplyRetriesBatch(t *testing.T) {
	for _, afterPrepare := range []bool{false, true} {
		t.Run(fmt.Sprintf("afterPrepare=%v", afterPrepare), func(t *testing.T) {
			ds := genDataset(t)
			eng := &flakyEngine{Index: buildMono(t, ds, genHorizon), ds: ds, afterPrepare: afterPrepare}
			log, err := wal.Open(filepath.Join(t.TempDir(), "ingest.wal"), wal.Options{Sync: wal.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			defer log.Close()
			in := New(eng, ds, log, Options{MaxDirty: 1 << 20, MaxDirtyAge: time.Hour})

			g := newDeltaGen(ds, 5)
			batch := g.round(4)
			if err := in.Submit(batch); err != nil {
				t.Fatal(err)
			}
			if err := in.Flush(); err == nil {
				t.Fatal("flush through a failing engine succeeded")
			}
			st := in.Stats()
			if st.PendingRecords != len(batch) || st.WALLagBytes <= 0 || st.OldestPendingAge <= 0 ||
				st.AppliedRecords != 0 || st.Applies != 0 || st.LastError == "" {
				t.Fatalf("after the failed apply: %+v; want %d pending, lag > 0, nothing applied", st, len(batch))
			}

			if err := in.Submit(g.round(4)); err != nil {
				t.Fatal(err)
			}
			if err := in.Flush(); err != nil {
				t.Fatal(err)
			}
			st = in.Stats()
			if st.PendingRecords != 0 || st.AppliedRecords != st.SubmittedRecords || st.Applies != 1 ||
				st.WALLagBytes != 0 || st.LastError != "" {
				t.Fatalf("after the retry: %+v; want everything applied in one apply", st)
			}

			// The live dataset is the WAL's replay, byte for byte, and the
			// engine answers like a fresh build over it.
			replayed := genDataset(t)
			if _, _, err := Replay(replayed, log, 0, nil); err != nil {
				t.Fatal(err)
			}
			var live, want bytes.Buffer
			if err := persist.Write(ds, &live); err != nil {
				t.Fatal(err)
			}
			if err := persist.Write(replayed, &want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(live.Bytes(), want.Bytes()) {
				t.Fatal("the live dataset differs from the WAL's replay")
			}
			assertEngineParity(t, ds, eng.Index, g.horizon)
		})
	}
}
