// Package persist stores datasets in a compact binary format, so that an
// extracted corpus (hours of revision parsing for a full Wikipedia dump)
// is loaded back in seconds.
//
// Format (all integers unsigned varints unless noted):
//
//	magic "TIND" | format version | WAL offset (version ≥ 3) | horizon
//	dictionary: count, then length-prefixed strings in id order
//	attributes: count, then per attribute:
//	    page, table, column (length-prefixed strings)
//	    observation end
//	    version count, then per version:
//	        start-day delta (vs previous version's start)
//	        value count, then value-id deltas (ids are sorted)
//	footer (version ≥ 2): CRC-32C of every preceding byte,
//	    4 bytes little-endian
//
// Delta coding keeps real corpora small: version starts are ascending and
// value ids within a set are sorted. The checksum footer (format version
// 2) lets Read reject truncated or bit-rotted corpora with a precise
// error instead of silently loading garbage that happens to parse. The
// WAL offset (format version 3) is the write-ahead-log position a
// snapshot covers (see snapshot.go); a plain corpus carries 0. Version-1
// (no footer) and version-2 (no offset) files remain readable, with
// offset 0.
package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"tind/internal/history"
	"tind/internal/obs"
	"tind/internal/timeline"
	"tind/internal/values"
)

// Persist I/O instruments: corpus (de)serialization is the startup cost
// of every serving process, so its time and volume are first-class
// metrics.
var (
	mWriteSeconds = obs.Default().Histogram("tind_persist_write_seconds",
		"Wall time of dataset serializations.", obs.ExpBuckets(0.001, 4, 10))
	mReadSeconds = obs.Default().Histogram("tind_persist_read_seconds",
		"Wall time of dataset deserializations.", obs.ExpBuckets(0.001, 4, 10))
	mWriteBytes = obs.Default().Counter("tind_persist_write_bytes_total",
		"Bytes written by dataset serializations.")
	mReadBytes = obs.Default().Counter("tind_persist_read_bytes_total",
		"Bytes consumed by dataset deserializations.")
	mReadErrors = obs.Default().Counter("tind_persist_read_errors_total",
		"Failed dataset reads (corrupt, truncated or malformed input).")
)

const (
	magic         = "TIND"
	formatVersion = 3
	// maxString guards against corrupt length prefixes.
	maxString = 1 << 20
	// footerSize is the fixed width of the version-2 checksum footer.
	footerSize = 4
)

// castagnoli is the CRC-32C polynomial table; Castagnoli has hardware
// support on amd64/arm64, so checksumming adds little to read time.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// chunkSize is the window the writer flushes and the reader refills:
// the checksum is updated once per chunk, not once per field.
const chunkSize = 64 << 10

// writer buffers the encoded output and maintains the running checksum
// over every payload byte for the footer, summing each chunk once as it
// is flushed. The first failed write is kept and reported at the end.
type writer struct {
	w     io.Writer
	buf   []byte
	crc   uint32
	bytes int64
	err   error
}

func (w *writer) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
	if len(w.buf) >= chunkSize {
		w.flush()
	}
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
	if len(w.buf) >= chunkSize {
		w.flush()
	}
}

// flush sums and writes the pending bytes.
func (w *writer) flush() {
	if w.err == nil {
		w.crc = crc32.Update(w.crc, castagnoli, w.buf)
		w.bytes += int64(len(w.buf))
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// Write serializes the dataset in the current format version, with WAL
// offset 0, appending the checksum footer.
func Write(ds *history.Dataset, w io.Writer) error { return write(ds, w, 0) }

func write(ds *history.Dataset, w io.Writer, walOffset int64) error {
	start := time.Now()
	defer func() { mWriteSeconds.ObserveDuration(time.Since(start)) }()
	bw := &writer{w: w, buf: make([]byte, 0, chunkSize+binary.MaxVarintLen64)}
	bw.buf = append(bw.buf, magic...)
	bw.uvarint(formatVersion)
	bw.uvarint(uint64(walOffset))
	bw.uvarint(uint64(ds.Horizon()))

	dict := ds.Dict()
	bw.uvarint(uint64(dict.Len()))
	for id := 0; id < dict.Len(); id++ {
		bw.str(dict.String(values.Value(id)))
	}

	bw.uvarint(uint64(ds.Len()))
	for _, h := range ds.Attrs() {
		meta := h.Meta()
		bw.str(meta.Page)
		bw.str(meta.Table)
		bw.str(meta.Column)
		bw.uvarint(uint64(h.ObservedUntil()))
		bw.uvarint(uint64(h.NumVersions()))
		prevStart := timeline.Time(0)
		for i := 0; i < h.NumVersions(); i++ {
			v := h.Version(i)
			bw.uvarint(uint64(v.Start - prevStart))
			prevStart = v.Start
			bw.uvarint(uint64(v.Values.Len()))
			prev := values.Value(0)
			for _, id := range v.Values {
				bw.uvarint(uint64(id - prev))
				prev = id
			}
		}
	}
	// Footer: checksum of everything written so far, excluded from the
	// checksum itself.
	bw.flush()
	if bw.err != nil {
		return bw.err
	}
	var foot [footerSize]byte
	binary.LittleEndian.PutUint32(foot[:], bw.crc)
	if _, err := w.Write(foot[:]); err != nil {
		return err
	}
	mWriteBytes.Add(bw.bytes + footerSize)
	return nil
}

// reader decodes from a fixed window over the input: buf[pos:end] is
// read but not yet consumed. Bytes are consumed straight from the window;
// only a refill calls the input, and it first adds the consumed bytes
// buf[:pos] to the running checksum, so that after the last attribute
// crc plus the window's consumed bytes cover exactly the payload the
// footer signs. The input's first error is kept and returned once the
// window runs dry.
type reader struct {
	src      io.Reader
	buf      []byte
	pos, end int
	crc      uint32 // checksum of the bytes consumed before buf
	bytes    int64  // bytes consumed before buf
	err      error
}

// fill reads input until the window holds at least want ≤ len(buf)
// unread bytes, sliding them to its front when it is full; it reports
// false when the input ends or fails first.
func (r *reader) fill(want int) bool {
	for empty := 0; r.end-r.pos < want; {
		if r.err != nil {
			return false
		}
		if r.end == len(r.buf) {
			r.crc = crc32.Update(r.crc, castagnoli, r.buf[:r.pos])
			r.bytes += int64(r.pos)
			r.end = copy(r.buf, r.buf[r.pos:r.end])
			r.pos = 0
		}
		n, err := r.src.Read(r.buf[r.end:])
		r.end += n
		r.err = err
		if n == 0 && err == nil {
			if empty++; empty == 100 {
				r.err = io.ErrNoProgress // as bufio gives up on a stalled input
			}
		}
	}
	return true
}

func (r *reader) ReadByte() (byte, error) {
	if r.pos == r.end && !r.fill(1) {
		return 0, r.err
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

// Read lets io.ReadFull take strings longer than the window.
func (r *reader) Read(p []byte) (int, error) {
	if r.pos == r.end && !r.fill(1) {
		return 0, r.err
	}
	n := copy(p, r.buf[r.pos:r.end])
	r.pos += n
	return n, nil
}

// next consumes the next n ≤ len(buf) bytes and returns them as a view of
// the window, valid until the next read, with io.ReadFull's errors.
func (r *reader) next(n int) ([]byte, error) {
	if !r.fill(n) {
		if r.err == io.EOF && r.end > r.pos {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, r.err
	}
	r.pos += n
	return r.buf[r.pos-n : r.pos], nil
}

// uvarint decodes the next unsigned varint like binary.ReadUvarint, from
// the window in place when it holds the whole varint.
func (r *reader) uvarint() (uint64, error) {
	if v, n := binary.Uvarint(r.buf[r.pos:r.end]); n > 0 {
		r.pos += n
		return v, nil
	}
	return binary.ReadUvarint(r)
}

// checksum returns the CRC-32C of every byte consumed so far.
func (r *reader) checksum() uint32 { return crc32.Update(r.crc, castagnoli, r.buf[:r.pos]) }

// consumed returns the number of bytes consumed so far.
func (r *reader) consumed() int64 { return r.bytes + int64(r.pos) }

// Read deserializes a dataset written by Write. Inputs of version 2 and
// later are verified against the checksum footer: a truncated or
// corrupted file that still parses structurally is rejected with a
// checksum mismatch.
func Read(r io.Reader) (*history.Dataset, error) {
	ds, _, err := read(r)
	return ds, err
}

// read is Read that also returns the file's WAL offset.
func read(r io.Reader) (ds *history.Dataset, walOffset int64, err error) {
	start := time.Now()
	br := &reader{src: r, buf: make([]byte, chunkSize)}
	defer func() {
		mReadSeconds.ObserveDuration(time.Since(start))
		mReadBytes.Add(br.consumed())
		if err != nil {
			mReadErrors.Inc()
		}
	}()
	head, err := br.next(len(magic))
	if err != nil {
		return nil, 0, fmt.Errorf("persist: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, 0, fmt.Errorf("persist: not a tind dataset (magic %q)", head)
	}
	ver, err := br.uvarint()
	if err != nil {
		return nil, 0, err
	}
	if ver < 1 || ver > formatVersion {
		return nil, 0, fmt.Errorf("persist: unsupported format version %d (supported: 1–%d)", ver, formatVersion)
	}
	var off uint64
	if ver >= 3 {
		if off, err = br.uvarint(); err != nil {
			return nil, 0, err
		}
		if off > math.MaxInt64 {
			return nil, 0, fmt.Errorf("persist: WAL offset %d out of range", off)
		}
	}
	horizon, err := br.uvarint()
	if err != nil {
		return nil, 0, err
	}
	ds = history.NewDataset(timeline.Time(horizon))

	nDict, err := br.uvarint()
	if err != nil {
		return nil, 0, err
	}
	dict := ds.Dict()
	for i := uint64(0); i < nDict; i++ {
		s, err := readString(br)
		if err != nil {
			return nil, 0, fmt.Errorf("persist: dictionary entry %d: %w", i, err)
		}
		if got := dict.Intern(s); got != values.Value(i) {
			return nil, 0, fmt.Errorf("persist: duplicate dictionary entry %q", s)
		}
	}

	nAttrs, err := br.uvarint()
	if err != nil {
		return nil, 0, err
	}
	for a := uint64(0); a < nAttrs; a++ {
		h, err := readAttribute(br, timeline.Time(horizon), nDict)
		if err != nil {
			return nil, 0, fmt.Errorf("persist: attribute %d: %w", a, err)
		}
		if _, err := ds.Add(h); err != nil {
			return nil, 0, fmt.Errorf("persist: attribute %d: %w", a, err)
		}
	}
	if ver >= 2 {
		sum := br.checksum() // checksum of the payload, before the footer bytes
		foot, err := br.next(footerSize)
		if err != nil {
			return nil, 0, fmt.Errorf("persist: reading checksum footer: %w", err)
		}
		if want := binary.LittleEndian.Uint32(foot); want != sum {
			return nil, 0, fmt.Errorf("persist: checksum mismatch: footer %#08x, computed %#08x (file corrupt or truncated)", want, sum)
		}
	}
	return ds, int64(off), nil
}

func readAttribute(br *reader, horizon timeline.Time, nDict uint64) (*history.History, error) {
	var meta history.Meta
	var err error
	if meta.Page, err = readString(br); err != nil {
		return nil, err
	}
	if meta.Table, err = readString(br); err != nil {
		return nil, err
	}
	if meta.Column, err = readString(br); err != nil {
		return nil, err
	}
	end, err := br.uvarint()
	if err != nil {
		return nil, err
	}
	nVersions, err := br.uvarint()
	if err != nil {
		return nil, err
	}
	if nVersions == 0 {
		return nil, fmt.Errorf("no versions")
	}
	if nVersions > uint64(horizon)+1 {
		return nil, fmt.Errorf("version count %d exceeds horizon", nVersions)
	}
	// The count is bounded only by the horizon, which the input names too:
	// grow from a small capacity rather than trust it.
	versions := make([]history.Version, 0, min(nVersions, 1024))
	start := timeline.Time(0)
	for v := uint64(0); v < nVersions; v++ {
		d, err := br.uvarint()
		if err != nil {
			return nil, err
		}
		start += timeline.Time(d)
		nVals, err := br.uvarint()
		if err != nil {
			return nil, err
		}
		if nVals > nDict {
			return nil, fmt.Errorf("value count %d exceeds dictionary", nVals)
		}
		ids := make(values.Set, 0, nVals)
		id := values.Value(0)
		for k := uint64(0); k < nVals; k++ {
			d, err := br.uvarint()
			if err != nil {
				return nil, err
			}
			id += values.Value(d)
			if uint64(id) >= nDict {
				return nil, fmt.Errorf("value id %d out of dictionary range", id)
			}
			if k > 0 && d == 0 {
				return nil, fmt.Errorf("duplicate value id %d", id)
			}
			ids = append(ids, id)
		}
		versions = append(versions, history.Version{Start: start, Values: ids})
	}
	return history.New(meta, versions, timeline.Time(end))
}

// readString decodes a length-prefixed string: from a view of the window
// when it fits, else through io.ReadFull.
func readString(br *reader) (string, error) {
	n, err := br.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxString {
		return "", fmt.Errorf("string length %d exceeds limit", n)
	}
	if n <= uint64(len(br.buf)) {
		b, err := br.next(int(n))
		return string(b), err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
