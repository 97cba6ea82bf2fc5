package core

import (
	"fmt"
	"slices"

	"pwsr/internal/intern"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// Violation reports the first PWSR violation an online Monitor
// observes.
type Violation struct {
	// Conjunct is the 0-based index of the conjunct whose projection
	// became non-serializable.
	Conjunct int
	// Op is the operation that closed the cycle.
	Op txn.Op
	// Cycle is the conflict cycle (first == last transaction id).
	Cycle []int
}

// Error implements the error interface.
func (v *Violation) Error() string {
	return fmt.Sprintf("core: PWSR violated at %s: conjunct C%d has conflict cycle %v",
		v.Op, v.Conjunct+1, v.Cycle)
}

// txnDirectMax bounds the direct-index transaction translation table:
// original ids in [txnBase, txnBase+txnDirectMax) resolve with one
// slice read instead of a map lookup (ids outside the window still work
// through the interner's map).
const txnDirectMax = 1 << 20

// Monitor checks PWSR online: feed it the schedule one operation at a
// time and it reports the first operation whose admission makes some
// conjunct's projection non-serializable. This is the certifier a
// PWSR scheduler consults before granting an operation — the
// admission-control counterpart of the batch CheckPWSR (the gate
// sched.OptimisticCertify is built on it).
//
// Per conjunct it maintains an incremental conflict graph over interned
// (dense-int) transactions and items, with slice-indexed adjacency and
// a topological order maintained by the Pearce–Kelly two-way search.
// Admitting an operation draws only the novel conflict edges implied by
// the item's conflict frontier (last writer plus readers since that
// write — enough to preserve reachability, hence the serializability
// verdict); an edge that respects the maintained order costs O(1), and
// only order-violating edges trigger a search bounded by the affected
// region. Amortized admission cost is therefore far below the full
// BFS-per-edge of the batch construction (kept as ReferenceMonitor).
//
// Transactions are interned once at the monitor level: every per-txn
// table (op counts, residency, commit marks, touched conjuncts, and
// each graph's node translation) is a dense slice indexed by the
// interned id, edge reference counts live in an open-addressing table
// keyed by packed node pairs. Steady-state Observe and Admissible are
// allocation-free (enforced by TestZeroAlloc* via
// testing.AllocsPerRun).
type Monitor struct {
	partition []state.ItemSet
	graphs    []*incGraph
	items     *intern.Strings
	// conjFlat/conjOff are the CSR layout of each interned item's
	// conjunct membership: conjFlat[conjOff[i]:conjOff[i+1]] lists the
	// conjuncts whose data set contains item i, computed once per
	// distinct item (one shared backing array instead of a slice
	// allocation per item). conjSlot runs beside conjFlat: the item's
	// slot in that conjunct graph's item table, so a graph holds state
	// for its own items only.
	conjFlat []int32
	conjSlot []int32
	conjOff  []int32

	violation *Violation
	ops       int

	// txns interns original transaction ids to dense monitor-level
	// ids; txnDirect short-circuits the interner's map for originals
	// in the window starting at txnBase (entry txnDirect[orig-txnBase]
	// = dense+1, 0 = unseen), which compaction re-bases on the smallest
	// surviving id so the table spans the live ids, not every id ever
	// seen. The parallel slices below are indexed by the dense ids.
	// opsBy counts surviving observed operations; resident marks transactions whose
	// operations are (still) in the monitor — liveTxns is the resident
	// count, what LiveTxns reports; committedB marks transactions whose
	// lifecycle ended (Commit): they issue no further operations and
	// cannot be retracted. Entries leave at compaction, which filters
	// the interner and the tables in place around the survivors.
	txns       *intern.IDs
	txnDirect  []int32
	txnBase    int
	opsBy      []int
	resident   []bool
	committedB []bool
	liveTxns   int
	// txnConjuncts[d] lists the conjuncts transaction d has touched
	// (deduplicated), so Retract repairs only the graphs that actually
	// saw the transaction instead of visiting every conjunct. Compaction
	// moves a reclaimed transaction's list past the end, where the next
	// fresh transaction finds it (see txnID).
	txnConjuncts [][]int32
	// remap is Compact's dense-id translation, kept between passes.
	remap []int32

	// sink, when non-nil, observes the applied lifecycle stream (see
	// LifecycleSink); internal/wal persists it for crash recovery.
	sink LifecycleSink

	// autoEvery is the automatic compaction threshold: a Compact pass
	// runs once this many Commit calls accumulate since the last pass
	// (≤ 0 disables automatic compaction).
	autoEvery    int
	commitsSince int
	// Cumulative compaction counters (see CompactStats).
	compactions   int
	reclaimedTxns int
	reclaimedOps  int
	// compactWM is the highest original transaction id a Compact pass
	// has physically reclaimed (0 before any reclamation) — the
	// monitor's low-watermark, exported through CompactWatermark for
	// consumers that tie their own retention to the certifier's (the
	// multiversion store's version GC).
	compactWM int
}

// NewMonitor builds a monitor over the conjunct partition. Automatic
// compaction is enabled at DefaultAutoCompactEvery (a no-op until
// Commit is used; see SetAutoCompact).
func NewMonitor(partition []state.ItemSet) *Monitor {
	m := &Monitor{
		partition: partition,
		items:     intern.NewStrings(),
		conjOff:   []int32{0},
		txns:      intern.NewIDs(),
		autoEvery: DefaultAutoCompactEvery,
	}
	for range partition {
		m.graphs = append(m.graphs, newIncGraph(m.txns))
	}
	return m
}

// NewShardedMonitor returns NewMonitor(partition) and ignores shards.
// Kept for benchmark/pipeline.go:52 until ROADMAP item 8.
func NewShardedMonitor(partition []state.ItemSet, shards int) *Monitor {
	return NewMonitor(partition)
}

// NewMonitor builds a monitor for a system's partition.
func (sys *System) NewMonitor() *Monitor {
	return NewMonitor(sys.Partition())
}

// Partition returns the conjunct partition the monitor certifies over.
// Callers must not modify it.
func (m *Monitor) Partition() []state.ItemSet { return m.partition }

// Ops returns the number of operations observed.
func (m *Monitor) Ops() int { return m.ops }

// PWSR reports whether everything observed so far is PWSR.
func (m *Monitor) PWSR() bool { return m.violation == nil }

// Violation returns the first violation, or nil.
func (m *Monitor) Violation() *Violation { return m.violation }

// itemID interns the entity the first time it is seen, computing its
// conjunct membership list and opening its state in each of those
// conjuncts' graphs.
func (m *Monitor) itemID(entity string) int32 {
	n := m.items.Len()
	id := m.items.ID(entity)
	if int(id) == n {
		for e, d := range m.partition {
			if d.Contains(entity) {
				g := m.graphs[e]
				m.conjFlat = append(m.conjFlat, int32(e))
				m.conjSlot = append(m.conjSlot, int32(len(g.item)))
				g.item = append(g.item, itemState{lastWriter: -1})
			}
		}
		m.conjOff = append(m.conjOff, int32(len(m.conjFlat)))
	}
	return id
}

// txnID interns the original transaction id, growing the dense per-txn
// tables to cover it.
func (m *Monitor) txnID(orig int) int32 {
	if i := orig - m.txnBase; i >= 0 && i < len(m.txnDirect) {
		if d := m.txnDirect[i]; d > 0 {
			return d - 1
		}
	}
	n := m.txns.Len()
	d := m.txns.ID(orig)
	if int(d) == n {
		m.opsBy = append(m.opsBy, 0)
		m.resident = append(m.resident, false)
		m.committedB = append(m.committedB, false)
		m.txnConjuncts = appendSpare(m.txnConjuncts)
	}
	m.setDirect(orig, d)
	return d
}

// setDirect enters orig → d in the direct-index table when orig lies in
// its window. Every interned id in the window is entered — on interning
// and again when compaction moves the window — so a miss there means
// unseen.
func (m *Monitor) setDirect(orig int, d int32) {
	i := orig - m.txnBase
	if i < 0 || i >= txnDirectMax {
		return
	}
	for i >= len(m.txnDirect) {
		m.txnDirect = append(m.txnDirect, 0)
	}
	m.txnDirect[i] = d + 1
}

// txnLookup resolves an original transaction id without interning it.
func (m *Monitor) txnLookup(orig int) (int32, bool) {
	i := orig - m.txnBase
	if i >= 0 && i < len(m.txnDirect) {
		d := m.txnDirect[i]
		return d - 1, d > 0
	}
	if i >= 0 && i < txnDirectMax {
		return -1, false // in the window but never grown: unseen
	}
	return m.txns.Lookup(orig)
}

// touch records that transaction d operated on conjunct e (dedup'd;
// conjunct lists per transaction are short, so a linear scan beats a
// set).
func (m *Monitor) touch(d int32, e int32) {
	tc := m.txnConjuncts[d]
	if len(tc) > 0 && tc[len(tc)-1] == e {
		return // repeat of the last conjunct, the overwhelmingly common case
	}
	if !slices.Contains(tc, e) {
		m.txnConjuncts[d] = append(tc, e)
	}
}

// Observe admits one operation. It returns nil while the observed
// prefix stays PWSR, and the (first) *Violation once some conjunct's
// projection acquires a conflict cycle. After a violation every further
// Observe returns the same violation. Operations on items outside every
// conjunct are ignored, mirroring Definition 2.
//
// Observe panics with a *LifecycleError for a transaction already
// marked finished by Commit: the compactor relies on committed
// transactions issuing no further operations (an id reclaimed by a
// past compaction is no longer detectable, so ids must not be reused
// — see Commit). CheckedObserve returns the error instead.
func (m *Monitor) Observe(o txn.Op) *Violation { return m.observe(&o) }

// observe is the pointer-based body of Observe: an operation is 72
// bytes, so the batch paths feed schedule entries without copying.
func (m *Monitor) observe(o *txn.Op) *Violation {
	v := m.admit(o)
	if m.sink != nil {
		m.sink.LogObserve(*o)
	}
	return v
}

// admit applies one operation without consulting the lifecycle sink.
func (m *Monitor) admit(o *txn.Op) *Violation {
	d := m.txnID(o.Txn)
	if m.committedB[d] {
		panic(&LifecycleError{Verb: "Observe", Txn: o.Txn, Reason: "operation for a committed transaction"})
	}
	m.ops++
	m.opsBy[d]++
	if !m.resident[d] {
		m.resident[d] = true
		m.liveTxns++
	}
	if m.violation != nil {
		return m.violation
	}
	item := m.itemID(o.Entity)
	for k := m.conjOff[item]; k < m.conjOff[item+1]; k++ {
		e := m.conjFlat[k]
		m.touch(d, e)
		if cycle := m.graphs[e].add(d, o.Action, m.conjSlot[k]); cycle != nil {
			m.violation = &Violation{Conjunct: int(e), Op: *o, Cycle: cycle}
			return m.violation
		}
	}
	return nil
}

// Admissible reports whether admitting o now would keep every
// conjunct's projection serializable. It performs the reachability
// checks of Observe without recording the operation — no conflict
// edge, frontier entry, or interning is committed — so a scheduler can
// probe several pending operations before granting one. Like Observe
// it reuses per-graph search scratch and must not be called
// concurrently; the monitor is a single-goroutine certifier. After a
// violation nothing is admissible.
//
// Every call runs the reachability checks afresh. The sched gates keep
// a verdict memo in front of it and re-probe a pending request only
// when something moved in its item's conjuncts.
func (m *Monitor) Admissible(o txn.Op) bool {
	if m.violation != nil {
		return false
	}
	item, ok := m.items.Lookup(o.Entity)
	if !ok {
		return true // never-seen item: no conjunct graph has state on it
	}
	lo, hi := m.conjOff[item], m.conjOff[item+1]
	if lo == hi {
		return true // item outside every conjunct: ignored per Definition 2
	}
	dense, ok := m.txnLookup(o.Txn)
	if !ok {
		return true // never-seen transaction: a brand-new node cannot close a cycle
	}
	for k := lo; k < hi; k++ {
		if !m.graphs[m.conjFlat[k]].admissible(dense, o.Action, m.conjSlot[k]) {
			return false
		}
	}
	return true
}

// Retract removes every observed operation of the transaction from the
// monitor, as if the transaction had never run: its conflict edges are
// dropped from each conjunct's incremental graph, edges another item
// pair still implies are kept (edges are reference-counted per
// contributing item), per-item conflict frontiers are recomputed from
// the surviving access history, and "bridge" edges a fresh replay of
// the surviving operations would draw (e.g. previous writer → reader,
// with the retracted writer excised between them) are inserted. Every
// bridge edge shortcuts a path through the retracted node, so the
// maintained Pearce–Kelly order stays a valid topological order and
// retraction can never create a cycle. This is the rollback a
// certification scheduler needs to abort a victim transaction without
// rebuilding certification state (sched.OptimisticCertify is the
// consumer); the full-rebuild semantics are retained on
// ReferenceMonitor.Retract for differential testing. Only the graphs
// of conjuncts the transaction actually touched are visited.
//
// Retracting a transaction the monitor has never seen is a no-op.
// Retract panics (with a *LifecycleError) after a violation — the
// monitor is sticky and its post-violation graphs are not maintained
// — and for a committed transaction; CheckedRetract returns the
// error instead.
func (m *Monitor) Retract(txnID int) {
	if m.violation != nil {
		panic(&LifecycleError{Verb: "Retract", Txn: txnID, Reason: "retraction on a violated monitor"})
	}
	d, ok := m.txnLookup(txnID)
	if !ok {
		return
	}
	if m.committedB[d] {
		panic(&LifecycleError{Verb: "Retract", Txn: txnID, Reason: "retraction of a committed transaction"})
	}
	// The touched-conjunct list survives retraction: the graphs keep
	// the (emptied) node, and a later Commit must still reach it to
	// mark it reclaimable.
	for _, e := range m.txnConjuncts[d] {
		m.graphs[e].retract(d)
	}
	m.ops -= m.opsBy[d]
	m.opsBy[d] = 0
	if m.resident[d] {
		m.resident[d] = false
		m.liveTxns--
	}
	if m.sink != nil {
		m.sink.LogRetract(txnID)
	}
}

// ConflictEdges returns conjunct e's current conflict edges as original
// transaction-id pairs, sorted. It is an inspection-only accessor for
// differential tests and post-run analysis: every call allocates and
// sorts a fresh (exactly presized) slice, so it must not be called on
// the admission hot path — Admissible is the hot-path interface.
func (m *Monitor) ConflictEdges(e int) [][2]int {
	g := m.graphs[e]
	out := make([][2]int, 0, g.edges.used)
	for _, key := range g.edges.keys {
		if key != 0 {
			x, y := unpackEdgeKey(key)
			out = append(out, [2]int{g.orig(x), g.orig(y)})
		}
	}
	sortEdgePairs(out)
	return out
}

// ObserveAll feeds a whole schedule one operation at a time; it
// returns the first violation or nil. The feed stops at the violating
// operation, so nothing after it is counted or made resident.
func (m *Monitor) ObserveAll(s *txn.Schedule) *Violation {
	ops := s.Ops()
	for i := range ops {
		if v := m.observe(&ops[i]); v != nil {
			return v
		}
	}
	return nil
}

// growAppend appends to a hot small slice, jumping straight to a
// 16-element backing array on the first growth: the standard 1→2→4→8
// doubling ramp costs four allocations and three copies per item-sized
// slice, and the monitor holds thousands of them (per-item logs,
// frontiers, contributions; per-node adjacency). One amortized helper
// keeps the append inlineable and cuts the growth allocations ~3×.
func growAppend[T any](xs []T, x T) []T {
	if len(xs) == cap(xs) {
		next := make([]T, len(xs), max(listMin, 2*cap(xs)))
		copy(next, xs)
		xs = next
	}
	return append(xs, x)
}

// listMin is growAppend's first backing-array size. Compaction leaves a
// list at most max(listMin, 2×len) of capacity (see shrink).
const listMin = 16

// appendSpare extends a table of lists by one empty list. Inside the
// table's capacity it reuses the list a compaction pass left in that
// slot, so a fresh entry allocates nothing.
func appendSpare[T any](xs [][]T) [][]T {
	n := len(xs)
	if n == cap(xs) {
		return append(xs, nil)
	}
	xs = xs[:n+1]
	xs[n] = xs[n][:0]
	return xs
}

// access is one recorded operation of an item's history, packed as
// node<<1|isWrite. The per-item logs are what make retraction possible
// without a full rebuild — frontiers and edge contributions are
// recomputed from them for exactly the items a retracted transaction
// touched.
type access uint32

func packAccess(node int32, action txn.Action) access {
	a := access(uint32(node) << 1)
	if action == txn.ActionWrite {
		a |= 1
	}
	return a
}

func (a access) node() int32 { return int32(a >> 1) }
func (a access) write() bool { return a&1 != 0 }

// itemState is one item's per-conjunct certification state: the
// conflict frontier (last writer, readers since), the access log, and
// the packed edges the item's history contributes (mirrored as a map
// once the list outgrows linear scans). One struct per item keeps the
// admission hot path on one cache line instead of parallel slices.
type itemState struct {
	lastWriter int32
	// readerBits mirrors membership of nodes 0..63 in readers, so the
	// per-read dedup is one bit test for the common small graph;
	// higher-numbered nodes fall back to the linear scan.
	readerBits uint64
	readers    []int32
	log        []access
	edges      []uint64
	edgeSet    map[uint64]struct{}
}

// nodeState is one transaction node's adjacency and bookkeeping. The
// search-hot order/mark/parent fields stay in parallel arrays on the
// graph (the Pearce–Kelly searches touch only those plus out/in).
type nodeState struct {
	out, in []int32
	// items lists the item slots the node accessed (duplicates
	// allowed; retract dedups).
	items []int32
	// dense is the monitor-level transaction id of this node.
	dense int32
	// committed marks the node's transaction finished (Commit); the
	// compactor may reclaim a committed node once every ancestor is
	// committed too (see incGraph.compact).
	committed bool
}

// incGraph is one conjunct's incremental conflict graph: slice-indexed
// adjacency over interned transactions, a maintained topological order
// (Pearce–Kelly), per-item conflict frontiers, and the per-item access
// logs plus per-item edge contributions that let retract roll a live
// transaction back out of the graph.
type incGraph struct {
	// mtxns is the owning monitor's transaction interner (read-only
	// here); nodeOf maps a monitor-dense transaction id to this graph's
	// node (-1 when the transaction never touched the conjunct).
	mtxns  *intern.IDs
	nodeOf []int32
	nodes  []nodeState
	// ord[n] is node n's position in the maintained topological order.
	ord []int32
	// edges maps a packed conflict edge to the number of items whose
	// access history currently implies it (open addressing; see
	// edgeTable); the edge is present in the adjacency lists iff its
	// count is positive. Reference counting (rather than a presence
	// set) is what lets retract drop exactly the edges no surviving
	// item still implies.
	edges edgeTable
	// item[i] is the state of the conjunct's item in slot i (see
	// Monitor.conjSlot); the graph's item arguments are these slots.
	item []itemState

	// Scratch state for the two-way search, reused across insertions.
	// markGen is 64-bit so a long-lived certifier (one search per
	// Admissible probe) cannot wrap it into stale mark collisions.
	mark    []int64
	parent  []int32
	markGen int64
	stack   []int32
	visF    []int32
	visB    []int32
	slots   []int32
	// Retraction replay scratch, reused across repaired items.
	replayEdges   []uint64
	replayReaders []int32
	// Compaction scratch, reused across passes (see compact).
	byOrd     []int32
	removable []bool
	remap     []int32
	edgeBuf   []edgeCount
}

func newIncGraph(mtxns *intern.IDs) *incGraph {
	return &incGraph{mtxns: mtxns}
}

// orig returns the original transaction id of node n.
func (g *incGraph) orig(n int32) int { return g.mtxns.Orig(g.nodes[n].dense) }

// node translates a monitor-dense transaction id to this graph's node,
// allocating the node at the end of the maintained topological order on
// first sight. The end of the order is its top: ord is a permutation of
// the node ids, so the new node's position exceeds every other, and the
// edges a fresh transaction's operations draw into it agree with the
// order without a search. A node slot compaction vacated hands its
// lists to the new node.
func (g *incGraph) node(dense int32) int32 {
	for int(dense) >= len(g.nodeOf) {
		g.nodeOf = append(g.nodeOf, -1)
	}
	if n := g.nodeOf[dense]; n >= 0 {
		return n
	}
	n := int32(len(g.nodes))
	g.nodeOf[dense] = n
	if int(n) < cap(g.nodes) {
		g.nodes = g.nodes[:n+1]
		ns := &g.nodes[n]
		*ns = nodeState{out: ns.out[:0], in: ns.in[:0], items: ns.items[:0], dense: dense}
	} else {
		g.nodes = append(g.nodes, nodeState{dense: dense})
	}
	g.ord = append(g.ord, n)
	g.mark = append(g.mark, 0)
	g.parent = append(g.parent, -1)
	return n
}

// nodeAt returns the graph node of a monitor-dense transaction id, or
// -1 when the transaction never touched this conjunct.
func (g *incGraph) nodeAt(dense int32) int32 {
	if int(dense) >= len(g.nodeOf) {
		return -1
	}
	return g.nodeOf[dense]
}

// add records the operation's conflicts and returns a cycle (original
// transaction ids, first == last) if one appears. On a cycle the access
// is not recorded; the monitor is sticky afterwards, so the graph is
// never consulted again.
func (g *incGraph) add(dense int32, action txn.Action, item int32) []int {
	me := g.node(dense)
	it := &g.item[item]
	lw := it.lastWriter
	switch action {
	case txn.ActionRead:
		// A repeat read within the current write epoch (me already in
		// readers, lastWriter unchanged since a write flushes readers)
		// contributed its edge at the first read; skip the dedup walk.
		reading := me < 64 && it.readerBits&(1<<uint(me)) != 0
		if !reading && me >= 64 {
			reading = slices.Contains(it.readers, me)
		}
		if !reading {
			if lw >= 0 && lw != me {
				if cycle := g.connect(lw, me, item); cycle != nil {
					return cycle
				}
			}
			it.readers = growAppend(it.readers, me)
			if me < 64 {
				it.readerBits |= 1 << uint(me)
			}
		}
	case txn.ActionWrite:
		if lw >= 0 && lw != me {
			if cycle := g.connect(lw, me, item); cycle != nil {
				return cycle
			}
		}
		for _, r := range it.readers {
			if r == me {
				continue
			}
			if cycle := g.connect(r, me, item); cycle != nil {
				return cycle
			}
		}
		it.lastWriter = me
		it.readers = it.readers[:0]
		it.readerBits = 0
	}
	it.log = growAppend(it.log, packAccess(me, action))
	g.nodes[me].items = growAppend(g.nodes[me].items, item)
	return nil
}

// itemEdgeSetThreshold is the contribution-list length past which an
// item's dedup moves from linear scan to a mirrored map.
const itemEdgeSetThreshold = 32

// contributes reports whether item already contributes the edge.
func (g *incGraph) contributes(item int32, key uint64) bool {
	it := &g.item[item]
	if it.edgeSet != nil {
		_, ok := it.edgeSet[key]
		return ok
	}
	return slices.Contains(it.edges, key)
}

// contribute records the edge in item's contribution set, promoting a
// hot item's list to a map at the threshold.
func (g *incGraph) contribute(item int32, key uint64) {
	it := &g.item[item]
	it.edges = growAppend(it.edges, key)
	if it.edgeSet != nil {
		it.edgeSet[key] = struct{}{}
	} else if len(it.edges) > itemEdgeSetThreshold {
		set := make(map[uint64]struct{}, 2*itemEdgeSetThreshold)
		for _, k := range it.edges {
			set[k] = struct{}{}
		}
		it.edgeSet = set
	}
}

// connect draws the conflict edge x → y on behalf of item, maintaining
// the per-item contribution set and the edge reference counts. Only a
// structurally new edge (count 0 → 1) touches the adjacency lists and
// the cycle machinery.
func (g *incGraph) connect(x, y, item int32) []int {
	key := edgeKey(x, y)
	if g.contributes(item, key) {
		return nil
	}
	if c := g.edges.get(key); c > 0 {
		g.edges.set(key, c+1)
		g.contribute(item, key)
		return nil
	}
	if cycle := g.insert(x, y); cycle != nil {
		return cycle
	}
	g.edges.set(key, 1)
	g.contribute(item, key)
	return nil
}

// admissible reports whether drawing the operation's conflict edges
// would keep the graph acyclic, without mutating it.
func (g *incGraph) admissible(dense int32, action txn.Action, item int32) bool {
	me := g.nodeAt(dense)
	if me < 0 {
		return true // a brand-new node cannot close a cycle
	}
	it := &g.item[item]
	lw := it.lastWriter
	if lw >= 0 && lw != me && g.wouldCycle(lw, me) {
		return false
	}
	if action == txn.ActionWrite {
		for _, r := range it.readers {
			if r != me && g.wouldCycle(r, me) {
				return false
			}
		}
	}
	return true
}

// wouldCycle reports whether inserting the edge x → y would close a
// cycle: y reaches x. Candidate edges of a single operation all point
// at the same node, so checking each against the current graph is
// sound — a cycle through two fresh edges implies a shorter one
// through a single fresh edge.
func (g *incGraph) wouldCycle(x, y int32) bool {
	if g.edges.get(edgeKey(x, y)) > 0 {
		return false // already present and the graph is acyclic
	}
	if g.ord[x] < g.ord[y] {
		return false
	}
	return g.forwardSearch(y, x) != nil
}

func edgeKey(x, y int32) uint64 {
	return uint64(uint32(x))<<32 | uint64(uint32(y))
}

func unpackEdgeKey(key uint64) (x, y int32) {
	return int32(uint32(key >> 32)), int32(uint32(key))
}

// insert adds the structurally new edge x → y to the adjacency lists,
// maintaining the topological order. It returns a cycle in original
// transaction ids ([y, …, x, y]) when the edge would close one, leaving
// the graph unchanged in that case. Callers (connect, bridgeEdge) own
// the reference-count bookkeeping and guarantee the edge is not already
// present.
func (g *incGraph) insert(x, y int32) []int {
	if g.ord[x] >= g.ord[y] {
		// The edge goes against the maintained order: search the
		// affected region. A path y ⇝ x means a cycle; otherwise
		// reorder the region (Pearce–Kelly).
		if g.forwardSearch(y, x) != nil {
			// Reconstruct y ⇝ x via parents, then close with the new
			// edge x → y.
			var rev []int
			for n := x; n >= 0; n = g.parent[n] {
				rev = append(rev, g.orig(n))
			}
			cycle := make([]int, 0, len(rev)+1)
			for i := len(rev) - 1; i >= 0; i-- {
				cycle = append(cycle, rev[i])
			}
			cycle = append(cycle, g.orig(y))
			return cycle
		}
		g.backwardSearch(x, g.ord[y])
		g.reorder()
	}
	g.nodes[x].out = growAppend(g.nodes[x].out, y)
	g.nodes[y].in = growAppend(g.nodes[y].in, x)
	return nil
}

// retract removes the transaction's accesses from the graph. For every
// item the transaction touched it filters the access log, recomputes
// the item's frontier and edge contribution from the surviving history,
// and applies the contribution diff to the reference counts: edges no
// item implies any more leave the adjacency lists, and bridge edges the
// surviving history now implies directly (they were previously covered
// by paths through the retracted node) are inserted. Because every
// bridge edge shortcuts an existing path, the maintained topological
// order already respects it and the repair cannot close a cycle.
func (g *incGraph) retract(dense int32) {
	t := g.nodeAt(dense)
	if t < 0 {
		return
	}
	touched := g.nodes[t].items
	for idx, item := range touched {
		if slices.Contains(touched[:idx], item) {
			continue // already repaired
		}
		it := &g.item[item]
		// Filter the retracted node out of the item's log in place.
		lg := it.log[:0]
		for _, a := range it.log {
			if a.node() != t {
				lg = append(lg, a)
			}
		}
		it.log = lg
		// Recompute the item's frontier and edge contribution from the
		// surviving history (into reused replay scratch).
		newEdges, lw, readers := g.replayItem(lg)
		// A hot item's map is refilled in place with the new contribution
		// and answers the old-edge diff.
		if it.edgeSet != nil || len(newEdges) > itemEdgeSetThreshold {
			if it.edgeSet == nil {
				it.edgeSet = make(map[uint64]struct{}, len(newEdges))
			}
			clear(it.edgeSet)
			for _, k := range newEdges {
				it.edgeSet[k] = struct{}{}
			}
		}
		old := it.edges
		for _, k := range old {
			kept := false
			if it.edgeSet != nil {
				_, kept = it.edgeSet[k]
			} else {
				kept = slices.Contains(newEdges, k)
			}
			if !kept {
				g.dropEdge(k)
			}
		}
		for _, k := range newEdges {
			if !slices.Contains(old, k) {
				g.bridgeEdge(k)
			}
		}
		it.edges = append(it.edges[:0], newEdges...)
		it.lastWriter = lw
		it.readers = append(it.readers[:0], readers...)
		it.readerBits = 0
		for _, r := range it.readers {
			if r < 64 {
				it.readerBits |= 1 << uint(r)
			}
		}
	}
	// The emptied node keeps its item list's array for the next attempt.
	g.nodes[t].items = touched[:0]
}

// replayItem recomputes an item's edge contribution and final frontier
// from its access log, mirroring add's frontier semantics. The returned
// slices alias the graph's replay scratch and are only valid until the
// next call.
func (g *incGraph) replayItem(lg []access) (edges []uint64, lastWriter int32, readers []int32) {
	edges = g.replayEdges[:0]
	readers = g.replayReaders[:0]
	lastWriter = -1
	addEdge := func(x, y int32) {
		if k := edgeKey(x, y); !slices.Contains(edges, k) {
			edges = append(edges, k)
		}
	}
	for _, a := range lg {
		n := a.node()
		if a.write() {
			if lastWriter >= 0 && lastWriter != n {
				addEdge(lastWriter, n)
			}
			for _, r := range readers {
				if r != n {
					addEdge(r, n)
				}
			}
			lastWriter = n
			readers = readers[:0]
		} else {
			if lastWriter >= 0 && lastWriter != n {
				addEdge(lastWriter, n)
			}
			if !slices.Contains(readers, n) {
				readers = append(readers, n)
			}
		}
	}
	g.replayEdges = edges
	g.replayReaders = readers
	return edges, lastWriter, readers
}

// dropEdge decrements the edge's reference count, removing it from the
// adjacency lists when no item contributes it any more.
func (g *incGraph) dropEdge(key uint64) {
	c := g.edges.get(key)
	if c > 1 {
		g.edges.set(key, c-1)
		return
	}
	g.edges.del(key)
	x, y := unpackEdgeKey(key)
	g.nodes[x].out = removeInt32(g.nodes[x].out, y)
	g.nodes[y].in = removeInt32(g.nodes[y].in, x)
}

// bridgeEdge increments the edge's reference count, inserting it into
// the adjacency lists when it is structurally new. A bridge edge always
// shortcuts a path through the retracted node, so insertion cannot
// close a cycle.
func (g *incGraph) bridgeEdge(key uint64) {
	if c := g.edges.get(key); c > 0 {
		g.edges.set(key, c+1)
		return
	}
	x, y := unpackEdgeKey(key)
	if cycle := g.insert(x, y); cycle != nil {
		panic(fmt.Sprintf("core: retraction bridge %d -> %d closed cycle %v",
			g.orig(x), g.orig(y), cycle))
	}
	g.edges.set(key, 1)
}

// removeInt32 deletes one occurrence of x (swap-remove; adjacency order
// is not semantically meaningful).
func removeInt32(xs []int32, x int32) []int32 {
	if i := slices.Index(xs, x); i >= 0 {
		xs[i] = xs[len(xs)-1]
		return xs[:len(xs)-1]
	}
	return xs
}

// sortEdgePairs orders edge pairs lexicographically.
func sortEdgePairs(es [][2]int) {
	slices.SortFunc(es, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
}

// forwardSearch runs a DFS from start over nodes with ord ≤ ord[target],
// recording parents. It returns the visited set (in g.visF) and a
// non-nil slice iff target was reached; callers reconstruct the path
// via g.parent.
func (g *incGraph) forwardSearch(start, target int32) []int32 {
	g.markGen++
	ub := g.ord[target]
	g.visF = g.visF[:0]
	g.stack = g.stack[:0]
	g.mark[start] = g.markGen
	g.parent[start] = -1
	g.stack = append(g.stack, start)
	for len(g.stack) > 0 {
		u := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		g.visF = append(g.visF, u)
		for _, v := range g.nodes[u].out {
			if g.ord[v] > ub || g.mark[v] == g.markGen {
				continue
			}
			g.mark[v] = g.markGen
			g.parent[v] = u
			if v == target {
				return g.visF
			}
			g.stack = append(g.stack, v)
		}
	}
	return nil
}

// backwardSearch collects (into g.visB) the nodes reaching start with
// ord ≥ lb. It uses a fresh mark generation, so the forward set stays
// distinguishable; the two sets are disjoint when no cycle exists.
func (g *incGraph) backwardSearch(start int32, lb int32) {
	g.markGen++
	g.visB = g.visB[:0]
	g.stack = g.stack[:0]
	g.mark[start] = g.markGen
	g.stack = append(g.stack, start)
	for len(g.stack) > 0 {
		u := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		g.visB = append(g.visB, u)
		for _, v := range g.nodes[u].in {
			if g.ord[v] < lb || g.mark[v] == g.markGen {
				continue
			}
			g.mark[v] = g.markGen
			g.stack = append(g.stack, v)
		}
	}
}

// reorder reassigns the order slots of the affected region: the
// backward set (ending at the edge's tail) takes the lowest slots, the
// forward set (starting at the edge's head) the highest, each keeping
// its internal relative order.
func (g *incGraph) reorder() {
	sortByOrd(g.visF, g.ord)
	sortByOrd(g.visB, g.ord)
	g.slots = g.slots[:0]
	for _, n := range g.visB {
		g.slots = append(g.slots, g.ord[n])
	}
	for _, n := range g.visF {
		g.slots = append(g.slots, g.ord[n])
	}
	sortInt32(g.slots)
	i := 0
	for _, n := range g.visB {
		g.ord[n] = g.slots[i]
		i++
	}
	for _, n := range g.visF {
		g.ord[n] = g.slots[i]
		i++
	}
}

// sortByOrd insertion-sorts nodes by their order position; affected
// regions are typically tiny.
func sortByOrd(nodes []int32, ord []int32) {
	for i := 1; i < len(nodes); i++ {
		n := nodes[i]
		j := i - 1
		for j >= 0 && ord[nodes[j]] > ord[n] {
			nodes[j+1] = nodes[j]
			j--
		}
		nodes[j+1] = n
	}
}

// sortInt32 insertion-sorts a small slice of int32 values.
func sortInt32(xs []int32) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > x {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = x
	}
}
