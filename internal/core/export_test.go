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

// ItemStates counts the per-item states the conjunct graphs hold.
func (m *Monitor) ItemStates() int {
	n := 0
	for _, g := range m.graphs {
		n += len(g.item)
	}
	return n
}
