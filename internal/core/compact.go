package core

import (
	"slices"

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
// A pass filters the monitor-level transaction interner and the dense
// per-transaction tables in place around the survivors and prunes the
// probe cache instead of dropping it: entries of committed
// transactions are discarded (their nodes may have left individual
// graphs, and a reclaimed dense id must never alias a fresh
// transaction), while entries of live transactions are rekeyed through
// the same dense-id remap the interner uses — see pruneProbe for why
// the surviving verdicts remain exact. A snapshot+recover cycle
// therefore resumes with the live working set's verdicts warm
// (TestProbeCacheWarmAcrossCompact).
//
// Nothing a pass reclaims is freed: the tables keep their capacity and
// a reclaimed transaction's lists are handed to the next fresh ones
// (txnID, incGraph.node), so a steady commit stream allocates nothing
// per transaction. What the monitor retains is therefore bounded by
// the largest population it held between two passes: per-transaction
// tables and node slots at that population, a vacated node slot's
// lists at spareListMax entries each, and every other list at
// max(listMin, 2×len) (see shrink).
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
	// the monitor level too; the survivors keep their order.
	n := m.txns.Len()
	remap := resize(m.remap, n)
	m.remap = remap
	removed := 0
	for d := int32(0); int(d) < n; d++ {
		if m.committedB[d] && !m.inAnyGraph(d) {
			remap[d] = -1
			removed++
		} else {
			remap[d] = d - int32(removed)
		}
	}
	if removed == 0 {
		m.pruneProbe(nil)
		if m.sink != nil {
			m.sink.LogCompact(nil, m.CompactStats(), m.ops)
		}
		return 0
	}
	var reclaimedIDs []int
	if m.sink != nil {
		reclaimedIDs = make([]int, 0, removed)
	}
	for d := int32(0); int(d) < n; d++ {
		if remap[d] >= 0 {
			continue
		}
		orig := m.txns.Orig(d)
		m.compactWM = max(m.compactWM, orig)
		if m.sink != nil {
			reclaimedIDs = append(reclaimedIDs, orig)
		}
		if m.resident[d] {
			m.liveTxns--
		}
	}
	// Rekey the probe cache before the dense tables are filtered: the
	// prune consults the pre-compaction committed marks.
	m.pruneProbe(remap)
	// Filter the dense tables in place. The conjunct lists are swapped,
	// not copied, so the reclaimed transactions' lists end up past the
	// survivors, each held by exactly one slot, for txnID to reuse.
	for d, nd := range remap {
		if nd < 0 {
			continue
		}
		m.opsBy[nd], m.resident[nd], m.committedB[nd] = m.opsBy[d], m.resident[d], m.committedB[d]
		m.txnConjuncts[nd], m.txnConjuncts[d] = m.txnConjuncts[d], m.txnConjuncts[nd]
	}
	k := n - removed
	m.opsBy, m.resident, m.committedB, m.txnConjuncts = m.opsBy[:k], m.resident[:k], m.committedB[:k], m.txnConjuncts[:k]
	m.txns.Remap(remap)
	// The direct-index translation references the old dense ids:
	// rebuild it for the survivors (reclaimed originals fall back to
	// "unseen", which is exactly the forgotten-transaction contract),
	// re-based on the smallest surviving id — or just past the
	// watermark when nothing survives — so that under a persistent gate
	// its length follows the live id window instead of the ids.
	m.txnDirect = m.txnDirect[:0]
	m.txnBase = m.compactWM + 1
	for d := int32(0); int(d) < k; d++ {
		if orig := m.txns.Orig(d); d == 0 || orig < m.txnBase {
			m.txnBase = orig
		}
	}
	for d := int32(0); int(d) < k; d++ {
		m.setDirect(m.txns.Orig(d), d)
	}
	for _, g := range m.graphs {
		g.remapDense(remap, k)
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
	if m.probeSpare == nil {
		m.probeSpare = make(map[uint64]probeEntry, len(m.probe))
	}
	kept := m.probeSpare
	for key, ent := range m.probe {
		d := int32(key >> 33)
		if m.committedB[d] {
			continue
		}
		nd := d
		if remap != nil {
			nd = remap[d]
		}
		kept[uint64(uint32(nd))<<33|key&(1<<33-1)] = ent
	}
	clear(m.probe)
	m.probe, m.probeSpare = kept, m.probe
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
// entries reclaimed. The survivors are renumbered in place, keeping
// every table's capacity: filtered adjacency, a compressed order
// preserving the survivors' relative topological positions, filtered
// per-item logs/frontiers/edge contributions, remapped edge reference
// counts rehashed into the same table, and a rewritten dense-id
// translation (nodeOf). The reclaimed nodes' slots move past the
// survivors with their lists, which node hands to the next fresh nodes.
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
	byOrd := resize(g.byOrd, n)
	for u := int32(0); u < int32(n); u++ {
		byOrd[g.ord[u]] = u
	}
	removable := resize(g.removable, n)
	g.byOrd, g.removable = byOrd, removable
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

	// Renumber the survivors in old id order.
	remap := resize(g.remap, n)
	g.remap = remap
	k := int32(0)
	for u := 0; u < n; u++ {
		if removable[u] {
			remap[u] = -1
			g.nodeOf[g.nodes[u].dense] = -1
		} else {
			remap[u] = k
			g.nodeOf[g.nodes[u].dense] = k
			k++
		}
	}
	// Move the survivors down, remapping their adjacency (a neighbor can
	// have a higher old id than its source, so the whole remap table had
	// to exist first). Slots are swapped, not copied: the reclaimed
	// nodes' slots end up past the survivors, each list held by exactly
	// one slot, and a list longer than spareListMax is let go so a
	// vacated slot keeps at most that much.
	for u := range n {
		nu := remap[u]
		if nu < 0 {
			continue
		}
		g.nodes[nu], g.nodes[u] = g.nodes[u], g.nodes[nu]
		ns := &g.nodes[nu]
		ns.out = remapNodes(ns.out, remap)
		ns.in = remapNodes(ns.in, remap)
	}
	for u := k; int(u) < n; u++ {
		ns := &g.nodes[u]
		ns.out, ns.in, ns.items = spare(ns.out), spare(ns.in), spare(ns.items)
	}
	g.nodes = g.nodes[:k]
	// Compress the order in place (byOrd holds the old one), and cut
	// the search scratch back: every stale mark is below the next
	// search's generation.
	pos := int32(0)
	for _, u := range byOrd {
		if nu := remap[u]; nu >= 0 {
			g.ord[nu] = pos
			pos++
		}
	}
	g.ord, g.mark, g.parent = g.ord[:k], g.mark[:k], g.parent[:k]
	// Both endpoints of a kept edge survive, so every item contributing
	// the edge keeps contributing it: the count carries over.
	g.edgeBuf = g.edges.rekey(func(key uint64) uint64 {
		x, y := unpackEdgeKey(key)
		if nx, ny := remap[x], remap[y]; nx >= 0 && ny >= 0 {
			return edgeKey(nx, ny)
		}
		return 0
	}, g.edgeBuf)

	// Filter and remap the per-item state. An item whose log is already
	// empty was not accessed since the last pass (its frontier and
	// contributions are empty too): its lists are let go, so only the
	// items of the last interval keep arrays for the next one.
	reclaimed := 0
	for item := range g.item {
		it := &g.item[item]
		if len(it.log) == 0 {
			it.log, it.readers, it.edges, it.edgeSet = nil, nil, nil, nil
			continue
		}
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
		it.log = shrink(lg)
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
			if it.edgeSet == nil {
				it.edgeSet = make(map[uint64]struct{}, len(edges))
			}
			clear(it.edgeSet)
			for _, key := range edges {
				it.edgeSet[key] = struct{}{}
			}
		} else {
			it.edgeSet = nil
		}
	}
	return reclaimed
}

// remapDense rewrites the graph's dense-id translation after the
// monitor filtered its transaction interner down to k transactions:
// every surviving node's dense id is rewritten through the monitor's
// remap table, and nodeOf is rewritten in place for the survivors (it
// covers at most k ids; node extends it on demand).
func (g *incGraph) remapDense(remap []int32, k int) {
	g.nodeOf = g.nodeOf[:min(len(g.nodeOf), k)]
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
	return shrink(out)
}

// shrink reallocates a list whose filter left most of its backing array
// dead, so compaction actually returns memory. A list keeps at most
// max(listMin, 2×len) of capacity: below that it keeps its array for
// the entries to come.
func shrink[T any](xs []T) []T {
	switch {
	case cap(xs) <= max(listMin, 2*len(xs)):
		return xs
	case len(xs) == 0:
		return nil
	}
	return slices.Clone(xs)
}

// spareListMax is the longest list a vacated node slot keeps for the
// next fresh node (a list a hub node grew past it is let go).
const spareListMax = 4 * listMin

// spare empties a reclaimed node's list for reuse, or lets it go.
func spare(xs []int32) []int32 {
	if cap(xs) > spareListMax {
		return nil
	}
	return xs[:0]
}

// resize returns a zeroed slice of length n, reusing xs's array when it
// is large enough.
func resize[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	xs = xs[:n]
	clear(xs)
	return xs
}
