package obs

import (
	"testing"
	"time"
)

// TestShardStatAddFoldsOneLeg: folding two batch entries' shares of one
// leg keeps the leg's identity, wall time and error, sums the funnel and
// the phases, and leaves Total to the caller.
func TestShardStatAddFoldsOneLeg(t *testing.T) {
	a := ShardStat{Shard: 2, Elapsed: 9 * time.Millisecond, Err: "down", InitialCandidates: 3, Validated: 2, Results: 1,
		Timings: Timings{Total: 4 * time.Millisecond, MTPrune: time.Millisecond, Rank: time.Millisecond}}
	b := a
	b.Timings = Timings{Total: 5 * time.Millisecond, Validate: 3 * time.Millisecond}
	var row ShardStat
	row.Add(&a)
	row.Add(&b)
	want := ShardStat{Shard: 2, Elapsed: 9 * time.Millisecond, Err: "down", InitialCandidates: 6, Validated: 4, Results: 2,
		Timings: Timings{MTPrune: time.Millisecond, Validate: 3 * time.Millisecond, Rank: time.Millisecond}}
	if row != want {
		t.Fatalf("folded row %+v, want %+v", row, want)
	}
	if !row.Failed() {
		t.Fatal("a row with an error must report Failed")
	}
}
