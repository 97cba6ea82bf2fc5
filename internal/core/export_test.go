package core

// SetObserveParallelThreshold overrides the schedule length at which
// ObserveAll shards across goroutines, returning the previous value so
// tests can restore it.
func SetObserveParallelThreshold(n int) int {
	old := observeParallelThreshold
	observeParallelThreshold = n
	return old
}

// SetCheckParallelThreshold overrides the schedule length at which
// CheckPWSR shards across goroutines, returning the previous value.
func SetCheckParallelThreshold(n int) int {
	old := checkParallelThreshold
	checkParallelThreshold = n
	return old
}

// SetShardedBatchThreshold overrides the schedule length at which
// ShardedMonitor.ObserveAll runs the epoch/fence pipeline, returning
// the previous value.
func SetShardedBatchThreshold(n int) int {
	old := shardedBatchThreshold
	shardedBatchThreshold = n
	return old
}

// SetShardedEpochSize overrides the epoch window of the batch
// pipeline, returning the previous value.
func SetShardedEpochSize(n int) int {
	old := shardedEpochSize
	shardedEpochSize = n
	return old
}

// DirectTableLen reports the length of the monitor's direct-index
// transaction translation table.
func (m *Monitor) DirectTableLen() int { return len(m.txnDirect) }

// InternedTxns sums the transactions the shards' monitors hold interned
// — resident or rolled back to an emptied node — so a test can tell
// that nothing is left behind once every transaction is reclaimed.
func (m *ShardedMonitor) InternedTxns() int {
	n := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		n += sh.mon.txns.Len()
		sh.mu.Unlock()
	}
	return n
}
