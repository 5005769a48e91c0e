package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"strings"
	"testing"

	"tind/internal/datagen"
	"tind/internal/history"
	"tind/internal/values"
)

func roundTrip(t *testing.T, ds *history.Dataset) *history.Dataset {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(ds, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func assertEqualDatasets(t *testing.T, a, b *history.Dataset) {
	t.Helper()
	if a.Horizon() != b.Horizon() || a.Len() != b.Len() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", a.Horizon(), a.Len(), b.Horizon(), b.Len())
	}
	if a.Dict().Len() != b.Dict().Len() {
		t.Fatalf("dictionary size mismatch: %d vs %d", a.Dict().Len(), b.Dict().Len())
	}
	for id := 0; id < a.Dict().Len(); id++ {
		if a.Dict().String(values.Value(id)) != b.Dict().String(values.Value(id)) {
			t.Fatalf("dictionary entry %d differs", id)
		}
	}
	for i := 0; i < a.Len(); i++ {
		ha, hb := a.Attr(history.AttrID(i)), b.Attr(history.AttrID(i))
		if ha.Meta() != hb.Meta() {
			t.Fatalf("attr %d meta differs: %v vs %v", i, ha.Meta(), hb.Meta())
		}
		if ha.ObservedUntil() != hb.ObservedUntil() || ha.NumVersions() != hb.NumVersions() {
			t.Fatalf("attr %d shape differs", i)
		}
		for v := 0; v < ha.NumVersions(); v++ {
			va, vb := ha.Version(v), hb.Version(v)
			if va.Start != vb.Start || !va.Values.Equal(vb.Values) {
				t.Fatalf("attr %d version %d differs", i, v)
			}
		}
	}
}

func TestRoundTripGeneratedCorpus(t *testing.T) {
	c, err := datagen.Generate(datagen.Config{Seed: 5, Attributes: 150, Horizon: 600, AttrsPerDomain: 25})
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, c.Dataset)
	assertEqualDatasets(t, c.Dataset, got)
}

func TestRoundTripEmptyDataset(t *testing.T) {
	ds := history.NewDataset(100)
	got := roundTrip(t, ds)
	assertEqualDatasets(t, ds, got)
}

func TestRoundTripEmptyValueSets(t *testing.T) {
	ds := history.NewDataset(50)
	h, err := history.New(history.Meta{Page: "p", Table: "t", Column: "c"},
		[]history.Version{
			{Start: 0, Values: nil},
			{Start: 10, Values: ds.Dict().InternAll([]string{"x"})},
			{Start: 20, Values: nil},
		}, 50)
	if err != nil {
		t.Fatal(err)
	}
	ds.Add(h)
	got := roundTrip(t, ds)
	assertEqualDatasets(t, ds, got)
}

func TestRoundTripUnicodeStrings(t *testing.T) {
	ds := history.NewDataset(10)
	h, err := history.New(history.Meta{Page: "Pokémon (ポケモン)", Table: "T1", Column: "名前"},
		[]history.Version{{Start: 0, Values: ds.Dict().InternAll([]string{"Pikachu ⚡", ""})}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	ds.Add(h)
	got := roundTrip(t, ds)
	assertEqualDatasets(t, ds, got)
}

func TestReadRejectsCorruptInput(t *testing.T) {
	c, err := datagen.Generate(datagen.Config{Seed: 1, Attributes: 30, Horizon: 200, AttrsPerDomain: 15})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(c.Dataset, &buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      append([]byte("NOPE"), good[4:]...),
		"bad version":    append([]byte(magic), 99),
		"truncated":      good[:len(good)/2],
		"truncated tail": good[:len(good)-3],
	}
	for name, data := range cases {
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: Read must fail", name)
		}
	}
}

func TestReadRejectsFlippedPayloadByte(t *testing.T) {
	// A flipped bit inside string content parses fine structurally — only
	// the checksum footer can catch it. Use a distinctive dictionary
	// string so the corruption site is easy to locate in the encoding.
	ds := history.NewDataset(50)
	h, err := history.New(history.Meta{Page: "p", Table: "t", Column: "c"},
		[]history.Version{{Start: 0, Values: ds.Dict().InternAll([]string{"AAAAAAAAAAAAAAAA"})}}, 50)
	if err != nil {
		t.Fatal(err)
	}
	ds.Add(h)
	var buf bytes.Buffer
	if err := Write(ds, &buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	pos := bytes.Index(data, []byte("AAAAAAAAAAAAAAAA"))
	if pos < 0 {
		t.Fatal("marker string not found in encoding")
	}
	data[pos+3] = 'B'
	_, err = Read(bytes.NewReader(data))
	if err == nil {
		t.Fatal("flipped payload byte must be rejected")
	}
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("want checksum mismatch error, got: %v", err)
	}
}

func TestReadRejectsTruncatedFooter(t *testing.T) {
	c, err := datagen.Generate(datagen.Config{Seed: 8, Attributes: 10, Horizon: 100, AttrsPerDomain: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(c.Dataset, &buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Strip part of the footer: the payload parses, the footer read fails.
	if _, err := Read(bytes.NewReader(data[:len(data)-2])); err == nil {
		t.Fatal("truncated footer must be rejected")
	} else if !strings.Contains(err.Error(), "checksum footer") {
		t.Fatalf("want footer read error, got: %v", err)
	}
}

// encodeVersion encodes ds in an older format version: version 2 is
// the current encoding without the header's WAL offset field (0, one
// byte) and with its footer recomputed; version 1 also lacks the footer.
func encodeVersion(t testing.TB, ds *history.Dataset, ver byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(ds, &buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if data[len(magic)] != formatVersion || formatVersion != 3 || data[len(magic)+1] != 0 {
		t.Fatalf("unexpected header % x", data[:len(magic)+2])
	}
	old := append([]byte(magic), ver)
	old = append(old, data[len(magic)+2:len(data)-footerSize]...)
	if ver >= 2 {
		old = binary.LittleEndian.AppendUint32(old, crc32.Checksum(old, castagnoli))
	}
	return old
}

func TestReadAcceptsLegacyV1(t *testing.T) {
	c, err := datagen.Generate(datagen.Config{Seed: 9, Attributes: 25, Horizon: 150, AttrsPerDomain: 10})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(encodeVersion(t, c.Dataset, 1)))
	if err != nil {
		t.Fatalf("legacy v1 file must stay readable: %v", err)
	}
	assertEqualDatasets(t, c.Dataset, got)
}

func TestReadRejectsGarbageAfterHeader(t *testing.T) {
	// Magic + version + absurd sizes must not allocate unbounded memory.
	data := append([]byte(magic), 1 /* version */, 100 /* horizon */, 200, 200, 200, 200, 200, 1)
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("garbage sizes must fail")
	}
	// A version count is bounded only by the horizon, which the input
	// names too: 2^26 versions under a 2^40-day horizon in 21 bytes.
	data = append([]byte(magic), 1)
	data = binary.AppendUvarint(data, 1<<40)
	data = append(data, 0, 1, 0, 0, 0, 0) // no dictionary, one attribute, empty names, end 0
	data = binary.AppendUvarint(data, 1<<26)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("truncated version list must fail")
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 16<<20 {
		t.Fatalf("a %d-byte input allocated %d MiB", len(data), grown>>20)
	}
}

func TestCompactness(t *testing.T) {
	c, err := datagen.Generate(datagen.Config{Seed: 2, Attributes: 200, Horizon: 800, AttrsPerDomain: 25})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(c.Dataset, &buf); err != nil {
		t.Fatal(err)
	}
	// Rough sanity: the delta-coded format should spend only a few bytes
	// per value occurrence.
	var occurrences int
	for _, h := range c.Dataset.Attrs() {
		for v := 0; v < h.NumVersions(); v++ {
			occurrences += h.Version(v).Values.Len()
		}
	}
	if perOcc := float64(buf.Len()) / float64(occurrences); perOcc > 8 {
		t.Fatalf("format too fat: %.1f bytes per value occurrence", perOcc)
	}
}

// stalledReader returns no data and no error, forever.
type stalledReader struct{}

func (stalledReader) Read([]byte) (int, error) { return 0, nil }

// TestReadStalledInputFails: an input that stops making progress is an
// error, not a hang.
func TestReadStalledInputFails(t *testing.T) {
	if _, err := Read(stalledReader{}); !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("got %v, want io.ErrNoProgress", err)
	}
}
