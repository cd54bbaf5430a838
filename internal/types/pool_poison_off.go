//go:build !evadebug

package types

// poisonDefault leaves use-after-Put poisoning off in release builds;
// enable it per pool with SetPoison. See BatchPool.
const poisonDefault = false
