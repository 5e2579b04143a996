package evstream

// PickShard maps a page index to one of n shards with a Fibonacci
// multiplicative hash, so that consecutive pages spread across shards
// instead of striping with the address layout.
func PickShard(page uint64, n int) int {
	if n <= 1 {
		return 0
	}
	return int((page * 0x9E3779B97F4A7C15 >> 33) % uint64(n))
}
