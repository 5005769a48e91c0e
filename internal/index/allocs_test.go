//go:build !race

package index

import (
	"context"
	"testing"

	"tind/internal/core"
	"tind/internal/datagen"
	"tind/internal/history"
)

// TestQueryAllocsPinned holds the single-query path to the pooled arena:
// a steady-state forward Query allocates its Result and little else
// (97-105 objects per query before Query shared QueryBatch's arenas).
// Not built under -race, where sync.Pool drops a quarter of all Puts at
// random and the count reads 17-20.
func TestQueryAllocsPinned(t *testing.T) {
	c, err := datagen.Generate(datagen.Config{Seed: 42, Attributes: 500, Horizon: 800})
	if err != nil {
		t.Fatal(err)
	}
	ds := c.Dataset
	x := buildTestIndex(t, ds, DefaultOptions(ds.Horizon()))
	o := QueryOptions{Mode: ModeForward, Params: core.DefaultDays(ds.Horizon())}
	ctx := context.Background()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := x.Query(ctx, ds.Attr(history.AttrID(i%ds.Len())), o); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 20 {
		t.Fatalf("forward Query allocates %.1f objects per call, want <= 20", allocs)
	}
}
