package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/timeline"
)

func snapDataset(t *testing.T, seed int64, attrs int, horizon timeline.Time) *history.Dataset {
	t.Helper()
	c, err := datagen.Generate(datagen.Config{
		Seed:           seed,
		Horizon:        horizon,
		Attributes:     attrs,
		AttrsPerDomain: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c.Dataset
}

func openSnapshot(t *testing.T, path string, wantOffset int64) *history.Dataset {
	t.Helper()
	ds, off, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if off != wantOffset {
		t.Fatalf("WAL offset %d, want %d", off, wantOffset)
	}
	return ds
}

func TestSnapshotRoundTripCarriesWALOffset(t *testing.T) {
	ds := snapDataset(t, 21, 12, 90)
	path := filepath.Join(t.TempDir(), "snap")
	if err := WriteSnapshot(ds, path, 4321); err != nil {
		t.Fatal(err)
	}
	assertEqualDatasets(t, ds, openSnapshot(t, path, 4321))
}

func TestSnapshotReplaceIsAtomic(t *testing.T) {
	ds1 := snapDataset(t, 21, 12, 90)
	ds2 := snapDataset(t, 22, 15, 120)
	path := filepath.Join(t.TempDir(), "snap")
	if err := WriteSnapshot(ds1, path, 100); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(ds2, path, 200); err != nil {
		t.Fatal(err)
	}
	assertEqualDatasets(t, ds2, openSnapshot(t, path, 200))
	// The rename must not leave the in-progress file behind.
	if _, err := os.Stat(path + snapTmpSuffix); !os.IsNotExist(err) {
		t.Fatalf("leftover %s%s after successful snapshot", path, snapTmpSuffix)
	}
}

// TestSnapshotCrashWindows simulates the crash states a snapshot write
// can leave and asserts OpenSnapshot recovers the complete older
// snapshot, or reports that none exists.
func TestSnapshotCrashWindows(t *testing.T) {
	ds1 := snapDataset(t, 21, 12, 90)

	t.Run("torn tmp generation", func(t *testing.T) {
		// Crash mid-write of the new snapshot: .tmp exists but was never
		// renamed. The live snapshot must still load.
		path := filepath.Join(t.TempDir(), "snap")
		if err := WriteSnapshot(ds1, path, 100); err != nil {
			t.Fatal(err)
		}
		tmp := path + snapTmpSuffix
		if err := os.WriteFile(tmp, []byte("TIND\x03torn"), 0o644); err != nil {
			t.Fatal(err)
		}
		assertEqualDatasets(t, ds1, openSnapshot(t, path, 100))
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Fatal("torn tmp file must be discarded on open")
		}
	})

	t.Run("no generation at all", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "snap")
		if _, _, err := OpenSnapshot(path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("error %v does not match os.ErrNotExist", err)
		}
	})
}

// TestSnapshotOpensV2File pins that a corpus file written before the
// format carried a WAL offset opens as a snapshot covering offset 0 —
// replay the whole log.
func TestSnapshotOpensV2File(t *testing.T) {
	ds := snapDataset(t, 21, 12, 90)
	path := filepath.Join(t.TempDir(), "snap")
	if err := os.WriteFile(path, encodeVersion(t, ds, 2), 0o644); err != nil {
		t.Fatal(err)
	}
	assertEqualDatasets(t, ds, openSnapshot(t, path, 0))
}

// TestSnapshotDirectoryIsAnError: a directory at the snapshot path (the
// container layout of older builds) must fail loudly, never read as "no
// snapshot yet" — that would silently skip the state it holds.
func TestSnapshotDirectoryIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap")
	if err := os.MkdirAll(filepath.Join(path, "inner"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, _, err := OpenSnapshot(path)
	if err == nil || errors.Is(err, os.ErrNotExist) {
		t.Fatalf("directory at the snapshot path: error %v, want a failure other than os.ErrNotExist", err)
	}
}

// TestSnapshotOffsetUnderChecksum: the WAL offset is signed by the
// footer like the rest of the payload, so a flipped offset byte cannot
// make recovery replay from the wrong position.
func TestSnapshotOffsetUnderChecksum(t *testing.T) {
	ds := snapDataset(t, 21, 12, 90)
	path := filepath.Join(t.TempDir(), "snap")
	if err := WriteSnapshot(ds, path, 4321); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The offset is the varint right after the version byte; flipping
	// its lowest bit keeps the encoding well-formed.
	pos := len(magic) + 1
	if !bytes.Equal(data[pos:pos+2], []byte{0xe1, 0x21}) { // uvarint(4321)
		t.Fatalf("offset field not at %d: % x", pos, data[pos:pos+2])
	}
	data[pos] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenSnapshot(path); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("flipped offset byte: error %v, want a checksum mismatch", err)
	}
}
