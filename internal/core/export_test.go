package core

// SetCheckParallelThreshold overrides the schedule length at which
// CheckPWSR shards across goroutines, returning the previous value.
func SetCheckParallelThreshold(n int) int {
	old := checkParallelThreshold
	checkParallelThreshold = n
	return old
}

// DirectTableLen reports the length of the monitor's direct-index
// transaction translation table.
func (m *Monitor) DirectTableLen() int { return len(m.txnDirect) }

// Spares counts what compaction left for fresh transactions to reuse:
// vacated node slots still holding a list, across the graphs, and
// reclaimed conjunct lists past the end of the transaction table. A
// count that falls across an admission means a recycled slot was
// handed out.
func (m *Monitor) Spares() int {
	n := 0
	for _, g := range m.graphs {
		for _, ns := range g.nodes[len(g.nodes):cap(g.nodes)] {
			if ns.out != nil || ns.in != nil || ns.items != nil {
				n++
			}
		}
	}
	for _, tc := range m.txnConjuncts[len(m.txnConjuncts):cap(m.txnConjuncts)] {
		if tc != nil {
			n++
		}
	}
	return n
}

// Spares sums the shards' Monitor.Spares.
func (m *ShardedMonitor) Spares() int {
	n := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		n += sh.mon.Spares()
		sh.mu.Unlock()
	}
	return n
}

// FreeEntries counts the reclaimed transaction-table entries waiting to
// be handed out again.
func (m *ShardedMonitor) FreeEntries() int {
	m.txnMu.RLock()
	defer m.txnMu.RUnlock()
	return len(m.free)
}

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
