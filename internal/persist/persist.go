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
	"bufio"
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

// writer bundles the buffered output with a reusable varint buffer so the
// hot encoding path allocates nothing per value, and maintains the
// running checksum over every payload byte for the footer.
type writer struct {
	bw      *bufio.Writer
	crc     uint32
	bytes   int64
	scratch [binary.MaxVarintLen64]byte
}

func (w *writer) Write(p []byte) (int, error) {
	w.crc = crc32.Update(w.crc, castagnoli, p)
	w.bytes += int64(len(p))
	return w.bw.Write(p)
}

func (w *writer) WriteString(s string) (int, error) {
	w.crc = crc32.Update(w.crc, castagnoli, []byte(s))
	w.bytes += int64(len(s))
	return w.bw.WriteString(s)
}

// Write serializes the dataset in the current format version, with WAL
// offset 0, appending the checksum footer.
func Write(ds *history.Dataset, w io.Writer) error { return write(ds, w, 0) }

func write(ds *history.Dataset, w io.Writer, walOffset int64) error {
	start := time.Now()
	defer func() { mWriteSeconds.ObserveDuration(time.Since(start)) }()
	bw := &writer{bw: bufio.NewWriter(w)}
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	writeUvarint(bw, formatVersion)
	writeUvarint(bw, uint64(walOffset))
	writeUvarint(bw, uint64(ds.Horizon()))

	dict := ds.Dict()
	writeUvarint(bw, uint64(dict.Len()))
	for id := 0; id < dict.Len(); id++ {
		writeString(bw, dict.String(values.Value(id)))
	}

	writeUvarint(bw, uint64(ds.Len()))
	for _, h := range ds.Attrs() {
		meta := h.Meta()
		writeString(bw, meta.Page)
		writeString(bw, meta.Table)
		writeString(bw, meta.Column)
		writeUvarint(bw, uint64(h.ObservedUntil()))
		writeUvarint(bw, uint64(h.NumVersions()))
		prevStart := timeline.Time(0)
		for i := 0; i < h.NumVersions(); i++ {
			v := h.Version(i)
			writeUvarint(bw, uint64(v.Start-prevStart))
			prevStart = v.Start
			writeUvarint(bw, uint64(v.Values.Len()))
			prev := values.Value(0)
			for _, id := range v.Values {
				writeUvarint(bw, uint64(id-prev))
				prev = id
			}
		}
	}
	// Footer: checksum of everything written so far, excluded from the
	// checksum itself. Written to the underlying buffer directly.
	var foot [footerSize]byte
	binary.LittleEndian.PutUint32(foot[:], bw.crc)
	if _, err := bw.bw.Write(foot[:]); err != nil {
		return err
	}
	mWriteBytes.Add(bw.bytes + footerSize)
	return bw.bw.Flush()
}

// reader wraps the buffered input and maintains the running checksum
// over every byte handed to the parser, so that after the last attribute
// the sum covers exactly the payload the footer signs.
type reader struct {
	br    *bufio.Reader
	crc   uint32
	bytes int64
}

func (r *reader) ReadByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err == nil {
		r.crc = crc32.Update(r.crc, castagnoli, []byte{b})
		r.bytes++
	}
	return b, err
}

func (r *reader) Read(p []byte) (int, error) {
	n, err := r.br.Read(p)
	r.crc = crc32.Update(r.crc, castagnoli, p[:n])
	r.bytes += int64(n)
	return n, err
}

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
	br := &reader{br: bufio.NewReader(r)}
	defer func() {
		mReadSeconds.ObserveDuration(time.Since(start))
		mReadBytes.Add(br.bytes)
		if err != nil {
			mReadErrors.Inc()
		}
	}()
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, 0, fmt.Errorf("persist: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, 0, fmt.Errorf("persist: not a tind dataset (magic %q)", head)
	}
	ver, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, 0, err
	}
	if ver < 1 || ver > formatVersion {
		return nil, 0, fmt.Errorf("persist: unsupported format version %d (supported: 1–%d)", ver, formatVersion)
	}
	var off uint64
	if ver >= 3 {
		if off, err = binary.ReadUvarint(br); err != nil {
			return nil, 0, err
		}
		if off > math.MaxInt64 {
			return nil, 0, fmt.Errorf("persist: WAL offset %d out of range", off)
		}
	}
	horizon, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, 0, err
	}
	ds = history.NewDataset(timeline.Time(horizon))

	nDict, err := binary.ReadUvarint(br)
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

	nAttrs, err := binary.ReadUvarint(br)
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
		sum := br.crc // checksum of the payload, before the footer bytes
		var foot [footerSize]byte
		if _, err := io.ReadFull(br.br, foot[:]); err != nil {
			return nil, 0, fmt.Errorf("persist: reading checksum footer: %w", err)
		}
		if want := binary.LittleEndian.Uint32(foot[:]); want != sum {
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
	end, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	nVersions, err := binary.ReadUvarint(br)
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
		d, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		start += timeline.Time(d)
		nVals, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if nVals > nDict {
			return nil, fmt.Errorf("value count %d exceeds dictionary", nVals)
		}
		ids := make(values.Set, 0, nVals)
		id := values.Value(0)
		for k := uint64(0); k < nVals; k++ {
			d, err := binary.ReadUvarint(br)
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

func writeUvarint(w *writer, v uint64) {
	n := binary.PutUvarint(w.scratch[:], v)
	w.Write(w.scratch[:n])
}

func writeString(w *writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func readString(br *reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > maxString {
		return "", fmt.Errorf("string length %d exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
