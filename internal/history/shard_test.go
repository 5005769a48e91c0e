package history

import "testing"

// TestShardOfGoldenVectors pins the exact (id, seed, shards) → shard
// assignment. ShardOf is a topology contract, not just
// a load balancer: in-process partitions, deployed shard servers and
// the router in front of them all derive ownership from it, so any
// change to the hash silently reshuffles who owns what and corrupts
// every existing deployment. If this test fails, you changed the wire
// format — don't update the goldens, revert the hash (or introduce a
// new versioned assignment alongside it).
func TestShardOfGoldenVectors(t *testing.T) {
	prefix := []struct {
		seed   int64
		shards int
		want   []int
	}{
		{seed: 0, shards: 2, want: []int{1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1}},
		{seed: 7, shards: 2, want: []int{0, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1, 0, 1, 0, 0, 1}},
		{seed: 7, shards: 4, want: []int{0, 1, 3, 2, 2, 3, 0, 2, 2, 1, 1, 2, 3, 0, 0, 3}},
		{seed: 42, shards: 8, want: []int{0, 3, 7, 7, 1, 7, 4, 0, 4, 4, 2, 7, 5, 1, 7, 4}},
		{seed: -3, shards: 3, want: []int{1, 2, 1, 0, 1, 1, 0, 2, 0, 2, 2, 1, 2, 1, 0, 2}},
		{seed: 1 << 40, shards: 16, want: []int{2, 9, 4, 10, 4, 6, 0, 12, 14, 9, 12, 13, 12, 11, 7, 9}},
	}
	for _, tc := range prefix {
		for id, want := range tc.want {
			if got := ShardOf(AttrID(id), tc.seed, tc.shards); got != want {
				t.Errorf("ShardOf(%d, %d, %d) = %d, want %d", id, tc.seed, tc.shards, got, want)
			}
		}
	}
	spot := []struct {
		id     AttrID
		seed   int64
		shards int
		want   int
	}{
		{id: 12345, seed: 7, shards: 4, want: 0},
		{id: 999999, seed: 42, shards: 8, want: 5},
		{id: 1, seed: -1, shards: 5, want: 4},
	}
	for _, tc := range spot {
		if got := ShardOf(tc.id, tc.seed, tc.shards); got != tc.want {
			t.Errorf("ShardOf(%d, %d, %d) = %d, want %d", tc.id, tc.seed, tc.shards, got, tc.want)
		}
	}
}

// TestShardOfProperties: the degenerate single-shard case collapses to
// 0, assignments stay in range, and the dense sequential ids datasets
// assign spread over every shard (the balance property the splitmix64
// finalizer is there for).
func TestShardOfProperties(t *testing.T) {
	for id := AttrID(0); id < 100; id++ {
		if got := ShardOf(id, 99, 1); got != 0 {
			t.Fatalf("ShardOf(%d, 99, 1) = %d, want 0", id, got)
		}
		if got := ShardOf(id, 99, 0); got != 0 {
			t.Fatalf("ShardOf(%d, 99, 0) = %d, want 0", id, got)
		}
	}
	const shards = 8
	seen := make([]int, shards)
	for id := AttrID(0); id < 1000; id++ {
		s := ShardOf(id, 1234, shards)
		if s < 0 || s >= shards {
			t.Fatalf("ShardOf(%d, 1234, %d) = %d out of range", id, shards, s)
		}
		seen[s]++
	}
	for s, n := range seen {
		if n == 0 {
			t.Fatalf("shard %d received no attributes from 1000 sequential ids", s)
		}
	}
}
