//go:build !race

package persist

import (
	"bytes"
	"testing"

	"tind/internal/datagen"
)

// TestReadAllocsBounded pins the decoder's allocations to what the
// dataset holds: a string per dictionary entry, a value set per version,
// and a handful per attribute (its three provenance strings, its version
// slice, the history with its value union). A decoder that allocates per
// byte or per varint read is far over. Not built under -race, where
// sync.Pool drops a quarter of all Puts at random and the union buffers
// history.New borrows are allocated again.
func TestReadAllocsBounded(t *testing.T) {
	c, err := datagen.Generate(datagen.Config{Seed: 9, Attributes: 500, Horizon: 1000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(c.Dataset, &buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	versions := 0
	for _, h := range c.Dataset.Attrs() {
		versions += h.NumVersions()
	}
	limit := float64(c.Dataset.Dict().Len() + 8*c.Dataset.Len() + versions)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > limit {
		t.Fatalf("reading %d bytes (%d dictionary entries, %d attributes, %d versions) made %.0f allocations, limit %.0f",
			len(data), c.Dataset.Dict().Len(), c.Dataset.Len(), versions, allocs, limit)
	}
	t.Logf("%.0f allocations, limit %.0f", allocs, limit)
}
