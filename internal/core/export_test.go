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
