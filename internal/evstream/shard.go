package evstream

// PickShard maps a page index to one of n shards with a Fibonacci
// multiplicative hash, so that consecutive pages spread across shards
// instead of striping with the address layout. The hash's high 32 bits are
// reduced to [0, n) by multiply-shift, not by a remainder: every worker asks
// this of every interval of every batch, so it must not divide.
func PickShard(page uint64, n int) int {
	if n <= 1 {
		return 0
	}
	return int((page * 0x9E3779B97F4A7C15 >> 32) * uint64(n) >> 32)
}
