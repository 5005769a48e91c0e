package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"tind/internal/history"
	"tind/internal/timeline"
	"tind/internal/values"
)

// refReader is the byte-at-a-time input the reference decoder reads
// through: a bufio.Reader, with the checksum updated on every byte.
type refReader struct {
	br  *bufio.Reader
	crc uint32
}

func (r *refReader) ReadByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err == nil {
		r.crc = crc32.Update(r.crc, castagnoli, []byte{b})
	}
	return b, err
}

func (r *refReader) Read(p []byte) (int, error) {
	n, err := r.br.Read(p)
	r.crc = crc32.Update(r.crc, castagnoli, p[:n])
	return n, err
}

// readReference is the decoder the windowed reader replaced: every byte
// goes through bufio, binary.ReadUvarint and one checksum update. It is
// kept as the reference Read must agree with (FuzzRead), without the
// read metrics.
func readReference(r io.Reader) (ds *history.Dataset, walOffset int64, err error) {
	br := &refReader{br: bufio.NewReader(r)}
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
		s, err := readStringReference(br)
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
		h, err := readAttributeReference(br, timeline.Time(horizon), nDict)
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

func readAttributeReference(br *refReader, horizon timeline.Time, nDict uint64) (*history.History, error) {
	var meta history.Meta
	var err error
	if meta.Page, err = readStringReference(br); err != nil {
		return nil, err
	}
	if meta.Table, err = readStringReference(br); err != nil {
		return nil, err
	}
	if meta.Column, err = readStringReference(br); err != nil {
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

func readStringReference(br *refReader) (string, error) {
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
