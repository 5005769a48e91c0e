package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testRecords() []Record {
	return []Record{
		{Type: TypeExtendHorizon, Horizon: 120},
		{Type: TypeAppend, Attr: 3, Start: 100, End: 110, Values: []string{"a", "b", "cc"}},
		{Type: TypeExtendObservation, Attr: 7, End: 115},
		{Type: TypeAppend, Attr: 0, Start: 110, End: 120, Values: nil},
	}
}

func openTemp(t *testing.T, opt Options) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Open(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, path
}

func TestRoundTrip(t *testing.T) {
	l, path := openTemp(t, Options{})
	recs := testRecords()
	end, err := l.Append(recs...)
	if err != nil {
		t.Fatal(err)
	}
	if end != l.Size() {
		t.Fatalf("Append end %d != Size %d", end, l.Size())
	}
	if l.Records() != len(recs) {
		t.Fatalf("Records = %d, want %d", l.Records(), len(recs))
	}

	var got []Record
	rend, err := l.ReplayFrom(0, func(r Record, _ int64) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rend != end {
		t.Fatalf("replay end %d, want %d", rend, end)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replayed records differ:\n got %+v\nwant %+v", got, recs)
	}

	// Reopen: same extent, same records.
	l.Close()
	l2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Size() != end || l2.Records() != len(recs) {
		t.Fatalf("reopen: size %d records %d, want %d / %d", l2.Size(), l2.Records(), end, len(recs))
	}
}

func TestReplayFromMidOffset(t *testing.T) {
	l, _ := openTemp(t, Options{})
	recs := testRecords()
	mid, err := l.Append(recs[:2]...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(recs[2:]...); err != nil {
		t.Fatal(err)
	}
	n, err := l.CountFrom(mid)
	if err != nil || n != 2 {
		t.Fatalf("CountFrom(mid) = %d, %v, want 2", n, err)
	}
	var got []Record
	if _, err := l.ReplayFrom(mid, func(r Record, _ int64) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs[2:]) {
		t.Fatalf("suffix replay: got %+v, want %+v", got, recs[2:])
	}
}

// TestTornTailTruncated is the crash-recovery core: a file ending in a
// partial frame reopens with the partial frame cut off and every record
// before it intact.
func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int64{1, 3, frameHeaderSize, frameHeaderSize + 1} {
		l, path := openTemp(t, Options{})
		recs := testRecords()
		goodEnd, err := l.Append(recs[:3]...)
		if err != nil {
			t.Fatal(err)
		}
		end, err := l.Append(recs[3])
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		// Tear the final frame: keep `cut` fewer bytes than the full log.
		if err := os.Truncate(path, end-cut); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// The tear may fall inside the last frame (truncate back to
		// goodEnd) — never lose a fully written earlier record.
		if l2.Size() != goodEnd || l2.Records() != 3 {
			t.Fatalf("cut %d: recovered size %d records %d, want %d / 3", cut, l2.Size(), l2.Records(), goodEnd)
		}
		// The log must accept appends again after truncation.
		if _, err := l2.Append(recs[3]); err != nil {
			t.Fatal(err)
		}
		if l2.Records() != 4 {
			t.Fatalf("cut %d: append after recovery: %d records", cut, l2.Records())
		}
		l2.Close()
	}
}

// TestCorruptCRCTruncated flips a payload byte mid-log: recovery keeps
// the records before the damaged frame and discards it and everything
// after (frame boundaries downstream of damage are untrusted).
func TestCorruptCRCTruncated(t *testing.T) {
	l, path := openTemp(t, Options{})
	recs := testRecords()
	end1, err := l.Append(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(recs[1:]...); err != nil {
		t.Fatal(err)
	}
	l.Close()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[end1+frameHeaderSize] ^= 0xff // first payload byte of record 2
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Size() != end1 || l2.Records() != 1 {
		t.Fatalf("recovered size %d records %d, want %d / 1", l2.Size(), l2.Records(), end1)
	}
}

// TestCRCValidGarbagePayloadTruncated forges a frame whose checksum is
// right but whose payload is not a record: recovery must stop there, not
// panic or deliver garbage.
func TestCRCValidGarbagePayloadTruncated(t *testing.T) {
	l, path := openTemp(t, Options{})
	goodEnd, err := l.Append(testRecords()[0])
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	payload := []byte{byte(TypeAppend), 0x80} // truncated uvarint
	var frame bytes.Buffer
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	frame.Write(hdr[:])
	frame.Write(payload)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame.Bytes()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Size() != goodEnd || l2.Records() != 1 {
		t.Fatalf("recovered size %d records %d, want %d / 1", l2.Size(), l2.Records(), goodEnd)
	}
}

func TestNotAWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("certainly not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Fatal("Open accepted a non-WAL file")
	}
}

func TestEmptyLogReplay(t *testing.T) {
	l, _ := openTemp(t, Options{})
	end, err := l.ReplayFrom(0, func(Record, int64) error { t.Fatal("record in empty log"); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if end != int64(HeaderSize) || l.Size() != int64(HeaderSize) {
		t.Fatalf("empty log end %d, want header size %d", end, HeaderSize)
	}
	if n, err := l.CountFrom(0); err != nil || n != 0 {
		t.Fatalf("CountFrom(0) = %d, %v", n, err)
	}
}

func TestReplayOffsetBeyondEnd(t *testing.T) {
	l, _ := openTemp(t, Options{})
	if _, err := l.ReplayFrom(l.Size()+10, func(Record, int64) error { return nil }); err == nil {
		t.Fatal("replay beyond end must fail")
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	l, path := openTemp(t, Options{})
	mib := strings.Repeat("x", maxString)
	// 17 values of 1 MiB: each within the string limit, the frame over
	// the 16 MiB that Open would read back as corruption.
	frame := make([]string, maxFrame/maxString+1)
	for i := range frame {
		frame[i] = mib
	}
	cases := [][]Record{
		{{Type: Type(99)}},
		{{Type: TypeAppend, Attr: -1, Start: 0, End: 1}},
		{{Type: TypeExtendHorizon, Horizon: -5}},
		{{Type: TypeExtendObservation, Attr: 1, End: -1}},
		{{Type: TypeAppend, Attr: 1, Start: 0, End: 1, Values: []string{mib + "x"}}},
		{{Type: TypeAppend, Attr: 1, Start: 0, End: 1, Values: frame}},
		// A batch fails whole: its valid prefix is not written either.
		append(testRecords(), Record{Type: TypeExtendHorizon, Horizon: -5}),
	}
	for i, batch := range cases {
		before := l.Size()
		if _, err := l.Append(batch...); !errors.Is(err, ErrInvalidRecord) {
			t.Fatalf("case %d: error %v does not match ErrInvalidRecord", i, err)
		}
		if st, err := os.Stat(path); err != nil || l.Size() != before || st.Size() != before {
			t.Fatalf("case %d: failed append moved the offset or wrote to the file (err %v)", i, err)
		}
	}
}

func TestSyncNeverStillDurableAfterClose(t *testing.T) {
	// SyncNever writes still reach the file (just without fsync): a clean
	// close + reopen sees them.
	l, path := openTemp(t, Options{Sync: SyncNever})
	if _, err := l.Append(testRecords()...); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Records() != len(testRecords()) {
		t.Fatalf("reopen after SyncNever: %d records", l2.Records())
	}
}
