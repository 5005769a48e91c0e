// Package wal is the durability layer of live tIND ingestion: an
// append-only, checksum-framed log of attribute-history deltas. Every
// delta accepted by the serving stack is framed, CRC-32C-signed and
// written here before the client sees a success, so a crash loses at
// most the tail the kernel had not yet persisted — and recovery replays
// the log (from the offset a snapshot covers) to rebuild exactly the
// acknowledged state.
//
// File layout:
//
//	header  "TWAL" | version byte (1)
//	frame*  payload length (uint32 LE) | CRC-32C(payload) (uint32 LE) | payload
//
// A frame's payload is one Record: a type byte followed by uvarint
// fields and, for appends, length-prefixed value strings. Values travel
// as raw strings — not interned ids — so the log is self-contained: it
// replays correctly against any snapshot of the same corpus regardless
// of the dictionary state the writing process had reached.
//
// Crash tolerance: Open scans the whole log and truncates at the last
// valid record instead of failing — a torn final frame (the classic
// crash-during-write artifact), a CRC mismatch or an undecodable payload
// all mark the durable end of the log. Everything before the first
// invalid byte is trusted (each frame is independently signed);
// everything after it is discarded, because frame boundaries downstream
// of a corrupt length field are unrecoverable.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"
	"time"

	"tind/internal/history"
	"tind/internal/obs"
	"tind/internal/timeline"
)

// WAL instruments: append volume, fsync count and how much torn tail
// recovery discarded — the observable half of the durability contract.
var (
	mAppendRecords = obs.Default().Counter("tind_wal_append_records_total",
		"Records appended to the write-ahead log.")
	mAppendBytes = obs.Default().Counter("tind_wal_append_bytes_total",
		"Bytes appended to the write-ahead log, including frame headers.")
	mFsyncs = obs.Default().Counter("tind_wal_fsync_total",
		"fsync calls issued by the write-ahead log.")
	mFsyncSeconds = obs.Default().Histogram("tind_wal_fsync_seconds",
		"Latency of write-ahead log fsync calls.", obs.LatencyBuckets)
	mTruncatedBytes = obs.Default().Counter("tind_wal_truncated_tail_bytes_total",
		"Bytes discarded by torn-tail truncation at open.")
	mReplayRecords = obs.Default().Counter("tind_wal_replay_records_total",
		"Records replayed from the write-ahead log at recovery.")
)

const (
	magic   = "TWAL"
	version = 1
	// HeaderSize is the fixed byte width of the file header; it is also
	// the offset of the first frame, the replay origin of an empty log.
	HeaderSize = len(magic) + 1
	// frameHeaderSize is length + CRC.
	frameHeaderSize = 8
	// maxFrame caps a frame's payload length; a corrupt length field must
	// not make recovery attempt a multi-gigabyte read.
	maxFrame = 1 << 24
	// maxValues caps the value count of one append record.
	maxValues = 1 << 20
	// maxString caps one value string, mirroring internal/persist.
	maxString = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Type discriminates the record kinds of the log, mirroring the three
// mutations the history layer supports on a live dataset.
type Type uint8

const (
	// TypeAppend records history.Append: the attribute changed to Values
	// at Start, extending its observation window to End.
	TypeAppend Type = 1
	// TypeExtendObservation records history.ExtendObservation: the last
	// version stays valid until End, no change.
	TypeExtendObservation Type = 2
	// TypeExtendHorizon records Dataset.ExtendHorizon: the observation
	// period grows to Horizon.
	TypeExtendHorizon Type = 3
)

// String names the record type for logs and errors.
func (t Type) String() string {
	switch t {
	case TypeAppend:
		return "append"
	case TypeExtendObservation:
		return "extend_observation"
	case TypeExtendHorizon:
		return "extend_horizon"
	default:
		return fmt.Sprintf("wal.Type(%d)", uint8(t))
	}
}

// Record is one logged history delta. Exactly the fields of the record's
// type are meaningful; the rest stay zero.
type Record struct {
	Type    Type
	Attr    history.AttrID // Append, ExtendObservation
	Start   timeline.Time  // Append: first day of the new version
	End     timeline.Time  // Append, ExtendObservation: new observation end
	Horizon timeline.Time  // ExtendHorizon: new dataset horizon
	Values  []string       // Append: the new version's value set
}

// SyncPolicy selects when Append calls fsync.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every Append batch: a record is on stable
	// storage before the caller acknowledges it. The default.
	SyncAlways SyncPolicy = iota
	// SyncNever leaves flushing to the OS: cheap, but a machine crash
	// (not just a process crash) can lose the unsynced tail.
	SyncNever
)

// Options configures a log.
type Options struct {
	// Sync is the fsync policy; zero value is SyncAlways.
	Sync SyncPolicy
}

// Log is an open write-ahead log. Appends are serialized internally;
// reads (ReplayFrom, CountFrom) only touch the validated extent and may
// run concurrently with appends.
type Log struct {
	f       *os.File
	opt     Options
	size    int64 // committed end offset: header + every valid frame
	records int   // valid records found at open plus records appended

	// lastFsyncNanos is the duration of the most recent fsync, read by
	// the ingest apply path to stamp its wide events with the durability
	// cost the acknowledged records paid.
	lastFsyncNanos atomic.Int64
}

// LastFsync returns the duration of the log's most recent fsync (zero
// before the first).
func (l *Log) LastFsync() time.Duration {
	return time.Duration(l.lastFsyncNanos.Load())
}

// syncTimed fsyncs the file, recording latency into the histogram and
// the last-fsync gauge shared with ingest events.
func (l *Log) syncTimed() error {
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	d := time.Since(start)
	l.lastFsyncNanos.Store(int64(d))
	mFsyncSeconds.ObserveDuration(d)
	mFsyncs.Inc()
	return nil
}

// Open opens (creating if missing) the log at path, validates every
// frame and truncates a torn or corrupt tail back to the last valid
// record. The returned log is positioned for appends.
func Open(path string, opt Options) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f, opt: opt}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		var hdr [HeaderSize]byte
		copy(hdr[:], magic)
		hdr[len(magic)] = version
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		l.size = int64(HeaderSize)
		return l, nil
	}
	end, n, err := scan(io.NewSectionReader(f, 0, st.Size()), st.Size(), 0, nil)
	if err != nil {
		f.Close()
		return nil, err
	}
	if end < st.Size() {
		// Torn or corrupt tail: cut the log back to its durable prefix.
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		mTruncatedBytes.Add(st.Size() - end)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	l.size = end
	l.records = n
	return l, nil
}

// Size returns the committed end offset of the log: the byte offset
// after the last valid record. It is the offset a snapshot taken now
// would cover.
func (l *Log) Size() int64 { return l.size }

// Records returns the number of valid records in the log.
func (l *Log) Records() int { return l.records }

// ErrInvalidRecord is wrapped by every Append failure that rejects a
// record before anything is written: a negative field, an unknown type,
// or a value or payload over the log's size limits.
var ErrInvalidRecord = errors.New("wal: invalid record")

// Append frames, writes and (per the sync policy) fsyncs the records as
// one batch, returning the end offset after them. When it returns nil
// under SyncAlways, the records are on stable storage. Every record is
// encoded before the write, so a record the log cannot hold fails the
// whole batch with ErrInvalidRecord and nothing reaches the file. A
// write error leaves the in-memory offset unchanged; the next Open
// truncates whatever partial frame reached the disk.
func (l *Log) Append(recs ...Record) (int64, error) {
	if len(recs) == 0 {
		return l.size, nil
	}
	var buf []byte
	for i := range recs {
		payload, err := encode(&recs[i])
		if err != nil {
			return l.size, fmt.Errorf("record %d: %w", i, err)
		}
		var hdr [frameHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
		buf = append(buf, hdr[:]...)
		buf = append(buf, payload...)
	}
	if _, err := l.f.Write(buf); err != nil {
		return l.size, err
	}
	if l.opt.Sync == SyncAlways {
		if err := l.syncTimed(); err != nil {
			return l.size, err
		}
	}
	l.size += int64(len(buf))
	l.records += len(recs)
	mAppendRecords.Add(int64(len(recs)))
	mAppendBytes.Add(int64(len(buf)))
	return l.size, nil
}

// Sync forces an fsync regardless of policy.
func (l *Log) Sync() error { return l.syncTimed() }

// Close closes the underlying file without syncing; call Sync first if
// the policy is SyncNever and the tail matters.
func (l *Log) Close() error { return l.f.Close() }

// ReplayFrom delivers every record between byte offset from (HeaderSize
// or an end offset a previous Append or Size reported) and the committed
// end of the log. fn receives each record together with the offset
// after it — persisting that offset with a snapshot makes the snapshot
// cover exactly the records replayed so far. An error from fn aborts the
// replay. from == 0 is accepted as an alias for HeaderSize.
func (l *Log) ReplayFrom(from int64, fn func(rec Record, end int64) error) (int64, error) {
	from = normalizeOffset(from)
	if from > l.size {
		return from, fmt.Errorf("wal: replay offset %d beyond log end %d", from, l.size)
	}
	n := 0
	end, _, err := scan(io.NewSectionReader(l.f, 0, l.size), l.size, from, func(rec Record, end int64) error {
		n++
		return fn(rec, end)
	})
	mReplayRecords.Add(int64(n))
	if err != nil {
		return end, err
	}
	if end != l.size {
		// Cannot happen for offsets on record boundaries: Open validated
		// every frame up to size. A mid-record offset surfaces here.
		return end, fmt.Errorf("wal: replay from %d stopped at %d before log end %d (offset not on a record boundary?)", from, end, l.size)
	}
	return end, nil
}

// CountFrom returns how many records lie between offset from and the
// committed end — the denominator of replay progress reporting.
func (l *Log) CountFrom(from int64) (int, error) {
	from = normalizeOffset(from)
	if from > l.size {
		return 0, fmt.Errorf("wal: count offset %d beyond log end %d", from, l.size)
	}
	_, n, err := scan(io.NewSectionReader(l.f, 0, l.size), l.size, from, nil)
	return n, err
}

func normalizeOffset(from int64) int64 {
	if from <= 0 {
		return int64(HeaderSize)
	}
	return from
}

// scan validates the header and iterates frames from offset from,
// stopping without error at the first torn or corrupt frame. It returns
// the offset after the last valid frame and the number of valid frames
// delivered (or counted when fn is nil). Only fn's error is propagated;
// structural damage ends the scan silently because recovery treats it
// as the end of the log.
func scan(r io.ReaderAt, size, from int64, fn func(rec Record, end int64) error) (int64, int, error) {
	var hdr [HeaderSize]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return 0, 0, fmt.Errorf("wal: reading header: %w", err)
	}
	if string(hdr[:len(magic)]) != magic {
		return 0, 0, fmt.Errorf("wal: not a write-ahead log (magic %q)", hdr[:len(magic)])
	}
	if hdr[len(magic)] != version {
		return 0, 0, fmt.Errorf("wal: unsupported version %d (want %d)", hdr[len(magic)], version)
	}
	off := from
	if off < int64(HeaderSize) {
		off = int64(HeaderSize)
	}
	n := 0
	var fh [frameHeaderSize]byte
	for off < size {
		if size-off < frameHeaderSize {
			break // torn frame header
		}
		if _, err := r.ReadAt(fh[:], off); err != nil {
			break
		}
		plen := int64(binary.LittleEndian.Uint32(fh[0:4]))
		if plen > maxFrame || off+frameHeaderSize+plen > size {
			break // corrupt length or torn payload
		}
		payload := make([]byte, plen)
		if _, err := r.ReadAt(payload, off+frameHeaderSize); err != nil {
			break
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(fh[4:8]) {
			break // corrupt payload
		}
		rec, err := decode(payload)
		if err != nil {
			break // CRC-valid but structurally invalid: untrusted from here
		}
		off += frameHeaderSize + plen
		n++
		if fn != nil {
			if err := fn(rec, off); err != nil {
				return off, n, err
			}
		}
	}
	return off, n, nil
}

// encode serializes a record payload (without the frame header).
func encode(rec *Record) ([]byte, error) {
	buf := make([]byte, 0, 64)
	buf = append(buf, byte(rec.Type))
	switch rec.Type {
	case TypeAppend:
		if rec.Attr < 0 || rec.Start < 0 || rec.End < 0 {
			return nil, fmt.Errorf("%w: negative field in %v record", ErrInvalidRecord, rec.Type)
		}
		if len(rec.Values) > maxValues {
			return nil, fmt.Errorf("%w: %d values exceed limit %d", ErrInvalidRecord, len(rec.Values), maxValues)
		}
		buf = binary.AppendUvarint(buf, uint64(rec.Attr))
		buf = binary.AppendUvarint(buf, uint64(rec.Start))
		buf = binary.AppendUvarint(buf, uint64(rec.End))
		buf = binary.AppendUvarint(buf, uint64(len(rec.Values)))
		for _, v := range rec.Values {
			if len(v) > maxString {
				return nil, fmt.Errorf("%w: value length %d exceeds limit %d", ErrInvalidRecord, len(v), maxString)
			}
			buf = binary.AppendUvarint(buf, uint64(len(v)))
			buf = append(buf, v...)
		}
	case TypeExtendObservation:
		if rec.Attr < 0 || rec.End < 0 {
			return nil, fmt.Errorf("%w: negative field in %v record", ErrInvalidRecord, rec.Type)
		}
		buf = binary.AppendUvarint(buf, uint64(rec.Attr))
		buf = binary.AppendUvarint(buf, uint64(rec.End))
	case TypeExtendHorizon:
		if rec.Horizon < 0 {
			return nil, fmt.Errorf("%w: negative field in %v record", ErrInvalidRecord, rec.Type)
		}
		buf = binary.AppendUvarint(buf, uint64(rec.Horizon))
	default:
		return nil, fmt.Errorf("%w: unknown record type %d", ErrInvalidRecord, rec.Type)
	}
	// Open treats a longer frame as corruption and would truncate it away.
	if len(buf) > maxFrame {
		return nil, fmt.Errorf("%w: payload %d bytes exceeds frame limit %d", ErrInvalidRecord, len(buf), maxFrame)
	}
	return buf, nil
}

// errPayload rejects a structurally invalid payload.
var errPayload = errors.New("wal: malformed record payload")

// decode parses one record payload, rejecting trailing bytes, oversized
// counts and values that would overflow the day/id domains.
func decode(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, errPayload
	}
	rec := Record{Type: Type(payload[0])}
	p := payload[1:]
	u := func() (uint64, bool) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, false
		}
		p = p[n:]
		return v, true
	}
	// Day indices and attribute ids are ints; anything beyond 2^53 in a
	// log is corruption, not data.
	const maxField = 1 << 53
	field := func() (int64, bool) {
		v, ok := u()
		if !ok || v > maxField {
			return 0, false
		}
		return int64(v), true
	}
	switch rec.Type {
	case TypeAppend:
		attr, ok1 := field()
		start, ok2 := field()
		end, ok3 := field()
		cnt, ok4 := u()
		if !ok1 || !ok2 || !ok3 || !ok4 || cnt > maxValues {
			return Record{}, errPayload
		}
		rec.Attr, rec.Start, rec.End = history.AttrID(attr), timeline.Time(start), timeline.Time(end)
		if cnt > 0 {
			rec.Values = make([]string, 0, min(cnt, 1024))
		}
		for i := uint64(0); i < cnt; i++ {
			n, ok := u()
			if !ok || n > maxString || uint64(len(p)) < n {
				return Record{}, errPayload
			}
			rec.Values = append(rec.Values, string(p[:n]))
			p = p[n:]
		}
	case TypeExtendObservation:
		attr, ok1 := field()
		end, ok2 := field()
		if !ok1 || !ok2 {
			return Record{}, errPayload
		}
		rec.Attr, rec.End = history.AttrID(attr), timeline.Time(end)
	case TypeExtendHorizon:
		h, ok := field()
		if !ok {
			return Record{}, errPayload
		}
		rec.Horizon = timeline.Time(h)
	default:
		return Record{}, errPayload
	}
	if len(p) != 0 {
		return Record{}, errPayload
	}
	return rec, nil
}
