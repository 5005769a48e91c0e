package history

// ShardOf maps an attribute id to one of shards partitions,
// deterministically under the given seed. The mapping is the single
// source of truth for which shard owns an attribute — the sharded index,
// the shard servers and the router all call it, so every tier built with
// one (seed, shards) pair partitions identically.
//
// The hash is the splitmix64 finalizer over id ⊕ seed: cheap, stateless
// and well mixed even for the dense sequential ids datasets assign, so
// shard sizes stay balanced without coordination.
func ShardOf(id AttrID, seed int64, shards int) int {
	if shards <= 1 {
		return 0
	}
	z := uint64(id) + uint64(seed)*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(shards))
}
