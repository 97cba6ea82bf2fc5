package core

import (
	"slices"

	"pwsr/internal/intern"
	"pwsr/internal/txn"
)

// DefaultAutoCompactEvery is the automatic compaction threshold a
// fresh Monitor starts with: a Compact pass runs once this many
// commits accumulate since the last pass. It trades compaction work
// (one pass costs O(live state)) against the transient window of
// committed-but-unreclaimed transactions a long-lived certifier
// carries between passes.
const DefaultAutoCompactEvery = 1024

// CompactStats reports a certifier's transaction-lifecycle counters.
type CompactStats struct {
	// Compactions counts Compact passes (manual and automatic).
	Compactions int
	// ReclaimedTxns counts transactions physically removed from
	// certification state.
	ReclaimedTxns int
	// ReclaimedOps counts per-conjunct access-log entries reclaimed
	// (an operation on an item shared by k conjuncts counts k times,
	// once per graph that logged it).
	ReclaimedOps int
	// LiveTxns is the number of transactions currently resident —
	// uncommitted ones plus committed ones not yet reclaimable.
	LiveTxns int
}

// Commit marks the transaction finished: it will issue no further
// operations and can no longer be retracted (aborts happen to live
// transactions; a committed one is durable). Committing is what makes
// a transaction eligible for compaction — see Compact for when the
// certifier may physically forget it. Committing an unseen transaction
// is permitted (it is reclaimed on the next pass); committing twice is
// a no-op. After a violation Commit is a no-op: the monitor is sticky
// and its graphs are no longer maintained.
//
// Once a committed transaction has been compacted away its id must not
// be reused: the monitor has forgotten it ever existed, so a reused id
// would be admitted as a brand-new transaction.
func (m *Monitor) Commit(txnID int) {
	if m.violation != nil {
		return
	}
	d := m.txnID(txnID)
	if m.committedB[d] {
		return
	}
	m.committedB[d] = true
	for _, e := range m.txnConjuncts[d] {
		g := m.graphs[e]
		if n := g.nodeAt(d); n >= 0 {
			g.nodes[n].committed = true
		}
	}
	// The commit is reported before any compaction it triggers, so a
	// lifecycle sink sees the stream in application order.
	if m.sink != nil {
		m.sink.LogCommit(txnID)
	}
	m.commitsSince++
	if m.autoEvery > 0 && m.commitsSince >= m.autoEvery {
		m.Compact()
	}
}

// Compact physically reclaims every committed transaction that can no
// longer participate in any future conflict cycle, and returns how
// many transactions it removed.
//
// The soundness argument is the low-watermark observation: conflict
// edges are only ever drawn INTO the transaction performing the new
// operation (from the item's frontier — last writer and readers since
// — to the operating transaction), so a committed transaction, which
// by contract never operates again, can never acquire another incoming
// edge. A committed transaction all of whose conflict-graph ancestors
// are committed too therefore sits in a region no future edge can
// enter: a future cycle through it would need a path from some live
// (or future) transaction into the region, and every edge into the
// region already exists and originates inside it. Removing the region
// — nodes, incident edges, frontier entries, access-log entries, and
// Pearce–Kelly order slots — preserves every future verdict exactly
// (TestCompactDifferential asserts this against the uncompacted
// monitor and the ReferenceMonitor rebuild spec). A committed
// transaction with a live ancestor is retained: it can still appear on
// a cycle a live transaction closes.
//
// A pass rebuilds the monitor-level transaction interner around the
// survivors and prunes the probe cache instead of dropping it:
// entries of committed transactions are discarded (their nodes may
// have left individual graphs, and a reclaimed dense id must never
// alias a fresh transaction), while entries of live transactions are
// rekeyed through the same dense-id remap the interner rebuild uses —
// see pruneProbe for why the surviving verdicts remain exact. A
// snapshot+recover cycle therefore resumes with the live working
// set's verdicts warm (TestProbeCacheWarmAcrossCompact).
//
// Compaction is idempotent between commits and runs automatically
// every SetAutoCompact commits. After a violation it is a no-op — the
// verdict is sticky and the violated graphs are kept as evidence.
func (m *Monitor) Compact() int {
	m.commitsSince = 0
	if m.violation != nil {
		return 0
	}
	m.compactions++
	for _, g := range m.graphs {
		m.reclaimedOps += g.compact()
	}

	// A committed transaction gone from every graph is reclaimed at
	// the monitor level too.
	n := m.txns.Len()
	removed := 0
	for d := int32(0); int(d) < n; d++ {
		if m.committedB[d] && !m.inAnyGraph(d) {
			removed++
		}
	}
	if removed == 0 {
		m.pruneProbe(nil)
		if m.sink != nil {
			m.sink.LogCompact(nil, m.CompactStats(), m.ops)
		}
		return 0
	}
	// Rebuild the interner and the dense per-txn tables around the
	// survivors, and remap every graph's id translation.
	newTxns := intern.NewIDs()
	remap := make([]int32, n)
	newOpsBy := make([]int, 0, n-removed)
	newResident := make([]bool, 0, n-removed)
	newCommitted := make([]bool, 0, n-removed)
	newTxnConjuncts := make([][]int32, 0, n-removed)
	var reclaimedIDs []int
	if m.sink != nil {
		reclaimedIDs = make([]int, 0, removed)
	}
	for d := int32(0); int(d) < n; d++ {
		if m.committedB[d] && !m.inAnyGraph(d) {
			remap[d] = -1
			if orig := m.txns.Orig(d); orig > m.compactWM {
				m.compactWM = orig
			}
			if m.sink != nil {
				reclaimedIDs = append(reclaimedIDs, m.txns.Orig(d))
			}
			if m.resident[d] {
				m.liveTxns--
			}
			continue
		}
		remap[d] = newTxns.ID(m.txns.Orig(d))
		newOpsBy = append(newOpsBy, m.opsBy[d])
		newResident = append(newResident, m.resident[d])
		newCommitted = append(newCommitted, m.committedB[d])
		newTxnConjuncts = append(newTxnConjuncts, m.txnConjuncts[d])
	}
	// Rekey the probe cache before the dense tables are replaced: the
	// prune consults the pre-compaction committed marks.
	m.pruneProbe(remap)
	m.txns = newTxns
	m.opsBy, m.resident, m.committedB = newOpsBy, newResident, newCommitted
	m.txnConjuncts = newTxnConjuncts
	// The direct-index translation references the old dense ids:
	// rebuild it for the survivors (reclaimed originals fall back to
	// "unseen", which is exactly the forgotten-transaction contract),
	// re-based on the smallest surviving id — or just past the
	// watermark when nothing survives — so that under a persistent gate
	// its length follows the live id window instead of the ids.
	m.txnDirect = m.txnDirect[:0]
	m.txnBase = m.compactWM + 1
	for d := int32(0); int(d) < newTxns.Len(); d++ {
		if orig := newTxns.Orig(d); d == 0 || orig < m.txnBase {
			m.txnBase = orig
		}
	}
	for d := int32(0); int(d) < newTxns.Len(); d++ {
		m.setDirect(newTxns.Orig(d), d)
	}
	for _, g := range m.graphs {
		g.remapDense(remap, newTxns)
	}
	m.reclaimedTxns += removed
	if m.sink != nil {
		m.sink.LogCompact(reclaimedIDs, m.CompactStats(), m.ops)
	}
	return removed
}

// pruneProbe rebuilds the probe cache across a compaction pass.
// Entries keyed by committed transactions are discarded: a committed
// transaction's node may have been removed from individual graphs (so
// its cached verdicts can go stale without a generation move), and
// once reclaimed its dense id will be recycled. Entries keyed by live
// transactions are kept, rekeyed through the compaction remap when
// the interner was rebuilt (remap non-nil).
//
// Keeping them is sound because compaction is removal-only and bumps
// no generation, so a kept entry revalidates against an unchanged
// stamp and must still equal the uncached verdict: an admissible
// verdict survives because removing nodes and edges can only shrink
// the reachable set (no cycle can appear), and a denied verdict for a
// live transaction t survives because its witness path t ⇝ frontier
// runs entirely through descendants of t — t is an uncommitted
// ancestor of every node on it, so none of them is reclaimable and
// the path is intact. TestProbeCacheDifferential exercises cached
// against uncached verdicts across compaction interleavings;
// TestProbeCacheWarmAcrossCompact pins the preservation itself.
func (m *Monitor) pruneProbe(remap []int32) {
	if len(m.probe) == 0 {
		return
	}
	old := m.probe
	m.probe = make(map[uint64]probeEntry, len(old))
	for key, ent := range old {
		d := int32(key >> 33)
		if m.committedB[d] {
			continue
		}
		nd := d
		if remap != nil {
			nd = remap[d]
		}
		m.probe[uint64(uint32(nd))<<33|key&(1<<33-1)] = ent
	}
}

// inAnyGraph reports whether the dense transaction id still has a node
// in some conjunct graph.
func (m *Monitor) inAnyGraph(d int32) bool {
	for _, g := range m.graphs {
		if g.nodeAt(d) >= 0 {
			return true
		}
	}
	return false
}

// LiveTxns returns the number of resident transactions: every
// transaction observed and not yet retracted or reclaimed by
// compaction. Under a steady commit stream this is what stays bounded
// by the concurrent window while Ops() grows.
func (m *Monitor) LiveTxns() int { return m.liveTxns }

// CompactWatermark returns the highest original transaction id a
// Compact pass has physically reclaimed, 0 before any reclamation.
// Under an id-ordered commit discipline (the block-parallel engine's
// ascending-id pipeline) it is a true low-watermark: every
// transaction at or below it is committed, reclaimed, and outside any
// future conflict cycle — the same ancestor-closed region the Compact
// soundness argument removes. Consumers anchoring their own retention
// to the certifier (the multiversion store's version GC) advance
// their floor to this mark. Without id-ordered commits it is only the
// maximum reclaimed id, not a prefix bound.
func (m *Monitor) CompactWatermark() int { return m.compactWM }

// CompactStats snapshots the lifecycle counters.
func (m *Monitor) CompactStats() CompactStats {
	return CompactStats{
		Compactions:   m.compactions,
		ReclaimedTxns: m.reclaimedTxns,
		ReclaimedOps:  m.reclaimedOps,
		LiveTxns:      m.LiveTxns(),
	}
}

// SetAutoCompact sets the automatic compaction threshold (a Compact
// pass per n commits; n ≤ 0 disables automatic compaction) and returns
// the previous value. The default is DefaultAutoCompactEvery.
func (m *Monitor) SetAutoCompact(n int) int {
	old := m.autoEvery
	m.autoEvery = n
	return old
}

// liveTxn reports whether the transaction is still resident (observed
// and not reclaimed); ShardedMonitor uses it to prune its global
// counters once a transaction is gone from every shard.
func (m *Monitor) liveTxn(txnID int) bool {
	d, ok := m.txns.Lookup(txnID)
	return ok && m.resident[d]
}

// compact removes every reclaimable node from the graph — committed,
// with every ancestor committed — and returns the number of access-log
// entries reclaimed. The survivors are rebuilt into fresh dense
// tables: filtered adjacency, a compressed order preserving the
// survivors' relative topological positions, filtered per-item
// logs/frontiers/edge contributions, remapped edge reference counts,
// and a rewritten dense-id translation (nodeOf/denseOf).
//
// Two invariants make the rebuild a pure filter. First, every
// in-neighbor of a removed node is removed (that is the fixpoint), so
// no retained→removed edge exists and dropping removed nodes never
// disconnects a path between retained nodes. Second, for the same
// reason a removed entry in an item's access log is never followed by
// a retained entry that conflicts with an entry before it "through"
// the removed one — the frontier a removed write absorbed was itself
// removed — so filtering the log leaves exactly the retained nodes'
// contributions and never implies a bridge edge.
func (g *incGraph) compact() int {
	n := len(g.nodes)
	if n == 0 {
		return 0
	}
	// One ascending pass over the maintained topological order decides
	// removability: in-edges always come from earlier positions, so
	// every ancestor is decided before its descendants.
	byOrd := make([]int32, n)
	for u := int32(0); u < int32(n); u++ {
		byOrd[g.ord[u]] = u
	}
	removable := make([]bool, n)
	removed := 0
	for _, u := range byOrd {
		if !g.nodes[u].committed {
			continue
		}
		ok := true
		for _, x := range g.nodes[u].in {
			if !removable[x] {
				ok = false
				break
			}
		}
		if ok {
			removable[u] = true
			removed++
		}
	}
	if removed == 0 {
		return 0
	}

	// Remap survivors to fresh node ids (old id order) and compress
	// the topological order.
	remap := make([]int32, n)
	newNodes := make([]nodeState, 0, n-removed)
	for u := 0; u < n; u++ {
		if removable[u] {
			remap[u] = -1
			g.nodeOf[g.nodes[u].dense] = -1
		} else {
			remap[u] = int32(len(newNodes))
			g.nodeOf[g.nodes[u].dense] = remap[u]
			newNodes = append(newNodes, nodeState{
				items:     g.nodes[u].items,
				dense:     g.nodes[u].dense,
				committed: g.nodes[u].committed,
			})
		}
	}
	k := len(newNodes)
	// Adjacency is remapped in a second pass: a neighbor can have a
	// higher old id than its source, so the full remap table must
	// exist first.
	i := 0
	for u := 0; u < n; u++ {
		if remap[u] < 0 {
			continue
		}
		newNodes[i].out = remapNodes(g.nodes[u].out, remap)
		newNodes[i].in = remapNodes(g.nodes[u].in, remap)
		i++
	}
	newOrd := make([]int32, k)
	pos := int32(0)
	for _, u := range byOrd {
		if nu := remap[u]; nu >= 0 {
			newOrd[nu] = pos
			pos++
		}
	}
	var newEdges edgeTable
	for idx, key := range g.edges.keys {
		if key == 0 {
			continue
		}
		x, y := unpackEdgeKey(key)
		if nx, ny := remap[x], remap[y]; nx >= 0 && ny >= 0 {
			// Both endpoints survive, so every item contributing the
			// edge keeps contributing it: the count carries over.
			newEdges.set(edgeKey(nx, ny), g.edges.vals[idx])
		}
	}

	// Filter and remap the per-item state.
	reclaimed := 0
	for item := range g.item {
		it := &g.item[item]
		lg := it.log[:0]
		for _, a := range it.log {
			if na := remap[a.node()]; na >= 0 {
				action := txn.ActionRead
				if a.write() {
					action = txn.ActionWrite
				}
				lg = append(lg, packAccess(na, action))
			} else {
				reclaimed++
			}
		}
		it.log = shrinkAccesses(lg)
		if it.lastWriter >= 0 {
			it.lastWriter = remap[it.lastWriter]
		}
		it.readers = remapNodes(it.readers, remap)
		it.readerBits = 0
		for _, r := range it.readers {
			if r < 64 {
				it.readerBits |= 1 << uint(r)
			}
		}
		edges := it.edges[:0]
		for _, key := range it.edges {
			x, y := unpackEdgeKey(key)
			if nx, ny := remap[x], remap[y]; nx >= 0 && ny >= 0 {
				edges = append(edges, edgeKey(nx, ny))
			}
		}
		it.edges = edges
		if len(edges) > itemEdgeSetThreshold {
			set := make(map[uint64]struct{}, len(edges))
			for _, key := range edges {
				set[key] = struct{}{}
			}
			it.edgeSet = set
		} else {
			it.edgeSet = nil
		}
	}

	g.nodes = newNodes
	g.ord = newOrd
	g.edges = newEdges
	g.mark = make([]int64, k)
	g.parent = make([]int32, k)
	g.markGen = 0
	g.stack, g.visF, g.visB, g.slots = nil, nil, nil, nil
	g.replayEdges, g.replayReaders = nil, nil
	return reclaimed
}

// remapDense rewrites the graph's dense-id translation after the
// monitor rebuilt its transaction interner: every surviving node's
// dense id is rewritten through the monitor's remap table and nodeOf
// is rebuilt at the new interner's size.
func (g *incGraph) remapDense(remap []int32, mtxns *intern.IDs) {
	g.mtxns = mtxns
	g.nodeOf = make([]int32, mtxns.Len())
	for i := range g.nodeOf {
		g.nodeOf[i] = -1
	}
	for n := range g.nodes {
		nd := remap[g.nodes[n].dense]
		g.nodes[n].dense = nd
		g.nodeOf[nd] = int32(n)
	}
}

// remapNodes filters a node list through the remap table, dropping
// removed nodes and rewriting survivors in place.
func remapNodes(nodes []int32, remap []int32) []int32 {
	out := nodes[:0]
	for _, x := range nodes {
		if nx := remap[x]; nx >= 0 {
			out = append(out, nx)
		}
	}
	return shrinkNodes(out)
}

// shrinkNodes reallocates a slice whose filter left most of its
// backing array dead, so compaction actually returns memory.
func shrinkNodes(xs []int32) []int32 {
	if len(xs) == 0 {
		return nil
	}
	if cap(xs) > 2*len(xs) {
		return slices.Clone(xs)
	}
	return xs
}

// shrinkAccesses is shrinkNodes for access logs.
func shrinkAccesses(xs []access) []access {
	if len(xs) == 0 {
		return nil
	}
	if cap(xs) > 2*len(xs) {
		return slices.Clone(xs)
	}
	return xs
}
