package persist

import (
	"bytes"
	"testing"

	"tind/internal/datagen"
)

// FuzzRead asserts the binary reader never panics or over-allocates on
// arbitrary input: it either parses a valid dataset and a non-negative
// WAL offset or returns an error, and in both cases agrees with the
// byte-at-a-time reference decoder (reference_test.go). Every corpus and
// snapshot load goes through this decoder.
func FuzzRead(f *testing.F) {
	c, err := datagen.Generate(datagen.Config{Seed: 3, Attributes: 20, Horizon: 120, AttrsPerDomain: 10})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(c.Dataset, &buf); err != nil {
		f.Fatal(err)
	}
	good := bytes.Clone(buf.Bytes())
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("TIND"))
	f.Add(append([]byte("TIND"), 1, 0, 0, 0))
	f.Add(append([]byte("TIND"), 2, 0, 0, 0))
	f.Add(good[:len(good)/3])
	// Older and footer-less variants: a legacy v1 body (valid) and a
	// current body missing its checksum footer (must error).
	f.Add(encodeVersion(f, c.Dataset, 1))
	f.Add(good[:len(good)-footerSize])
	f.Add(good[:len(good)-1])
	// A few targeted mutations as seeds.
	for _, pos := range []int{5, 10, len(good) / 2, len(good) - 2} {
		m := append([]byte(nil), good...)
		m[pos] ^= 0xff
		f.Add(m)
	}
	// A snapshot's encoding: a non-zero, multi-byte WAL offset in the
	// header, whole and truncated; and a v2 body (valid, offset 0).
	buf.Reset()
	if err := write(c.Dataset, &buf, 1<<40+12345); err != nil {
		f.Fatal(err)
	}
	snap := buf.Bytes()
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	f.Add(encodeVersion(f, c.Dataset, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, off, err := read(bytes.NewReader(data))
		if err == nil && (ds == nil || off < 0) {
			t.Fatalf("dataset %v, WAL offset %d without error", ds, off)
		}
		// The byte-at-a-time reference decoder must agree: the same
		// error, or an equal dataset at the same WAL offset.
		ref, refOff, refErr := readReference(bytes.NewReader(data))
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("read error %v, reference error %v", err, refErr)
		}
		if err == nil {
			if off != refOff {
				t.Fatalf("WAL offset %d, reference %d", off, refOff)
			}
			assertEqualDatasets(t, ref, ds)
		}
	})
}
