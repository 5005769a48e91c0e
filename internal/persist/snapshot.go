package persist

// This file implements snapshots: crash-safe dataset files paired with a
// write-ahead log. A snapshot is an ordinary dataset file whose header
// records the WAL byte offset it covers; startup recovery loads the
// snapshot and replays only the WAL suffix past that offset.
//
// Atomicity is by rename, not in-place overwrite: the new snapshot is
// fully written and fsynced at <path>.tmp, then renamed over <path>, and
// the parent directory is fsynced. rename(2) replaces the old file
// atomically, so a crash at any point leaves a complete snapshot at
// <path> (or none, before the first), and at worst a torn <path>.tmp
// that OpenSnapshot discards.

import (
	"fmt"
	"os"
	"path/filepath"

	"tind/internal/history"
)

// snapTmpSuffix names the in-progress snapshot, never read until renamed.
const snapTmpSuffix = ".tmp"

// WriteSnapshot atomically replaces the snapshot file at path with the
// dataset's current state, recording walOffset as the WAL position the
// snapshot covers. Callers serialize WriteSnapshot against itself per
// path.
func WriteSnapshot(ds *history.Dataset, path string, walOffset int64) error {
	tmp := path + snapTmpSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	err = write(ds, f, walOffset)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// OpenSnapshot loads the snapshot at path and returns the WAL offset it
// covers. A leftover <path>.tmp is discarded first: it was never renamed
// into place, so it may be torn. The error wraps os.ErrNotExist when no
// snapshot exists; anything else at path that is not a snapshot file —
// a directory included — is an error.
func OpenSnapshot(path string) (*history.Dataset, int64, error) {
	os.Remove(path + snapTmpSuffix)
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("persist: snapshot: %w", err)
	}
	defer f.Close()
	ds, off, err := read(f)
	if err != nil {
		return nil, 0, fmt.Errorf("persist: snapshot %s: %w", path, err)
	}
	return ds, off, nil
}

// syncDir fsyncs a directory so the renames and file creations inside it
// are durable. Best-effort on filesystems that reject directory fsync.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !os.IsPermission(err) {
		// Some filesystems (and platforms) refuse fsync on directories;
		// treat only genuine I/O errors as fatal.
		if pe, ok := err.(*os.PathError); ok && (pe.Err.Error() == "invalid argument" || pe.Err.Error() == "operation not supported") {
			return nil
		}
		return err
	}
	return nil
}
