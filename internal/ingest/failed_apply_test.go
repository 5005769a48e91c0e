package ingest

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"tind/internal/history"
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
