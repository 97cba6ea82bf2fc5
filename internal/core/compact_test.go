package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// TestCommitCompactReclaims walks the simplest lifecycle: a committed
// source transaction is physically reclaimed, its frontier traces
// vanish, and a conflicting successor proceeds against an empty graph.
func TestCommitCompactReclaims(t *testing.T) {
	partition := []state.ItemSet{state.NewItemSet("a", "b")}
	m := core.NewMonitor(partition)
	if v := m.Observe(txn.W(1, "a", 1)); v != nil {
		t.Fatal(v)
	}
	m.Commit(1)
	if got := m.LiveTxns(); got != 1 {
		t.Fatalf("LiveTxns before compact = %d, want 1 (committed but unreclaimed)", got)
	}
	if got := m.Compact(); got != 1 {
		t.Fatalf("Compact reclaimed %d transactions, want 1", got)
	}
	if got := m.LiveTxns(); got != 0 {
		t.Fatalf("LiveTxns after compact = %d, want 0", got)
	}
	if st := m.CompactStats(); st.ReclaimedOps != 1 || st.ReclaimedTxns != 1 || st.Compactions != 1 {
		t.Fatalf("unexpected stats %+v", st)
	}
	// The successor must be admitted and must not inherit an edge from
	// the reclaimed transaction.
	if !m.Admissible(txn.W(2, "a", 2)) {
		t.Fatal("successor write inadmissible after predecessor was reclaimed")
	}
	if v := m.Observe(txn.W(2, "a", 2)); v != nil {
		t.Fatal(v)
	}
	if edges := m.ConflictEdges(0); len(edges) != 0 {
		t.Fatalf("edges after reclaim+successor = %v, want none", edges)
	}
	// Ops is lifecycle-invariant: it still counts the committed
	// transaction's observed operation.
	if m.Ops() != 2 {
		t.Fatalf("Ops = %d, want 2", m.Ops())
	}
}

// TestCompactPinnedByLiveAncestor checks the retention side of the
// low-watermark rule: a committed transaction reachable from a live
// one must survive compaction (it can still join a cycle the live
// transaction closes), and is reclaimed only after its ancestor
// commits too.
func TestCompactPinnedByLiveAncestor(t *testing.T) {
	partition := []state.ItemSet{state.NewItemSet("a")}
	m := core.NewMonitor(partition)
	m.SetAutoCompact(0)
	// T1 (live) writes a, T2 reads it: edge 1 → 2, then T2 commits.
	m.Observe(txn.W(1, "a", 1))
	m.Observe(txn.R(2, "a", 1))
	m.Commit(2)
	if got := m.Compact(); got != 0 {
		t.Fatalf("Compact reclaimed %d, want 0 (T2 pinned by live T1)", got)
	}
	if got, want := m.ConflictEdges(0), [][2]int{{1, 2}}; !slices.Equal(got, want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
	// Once T1 commits, the whole committed region unpins at once.
	m.Commit(1)
	if got := m.Compact(); got != 2 {
		t.Fatalf("Compact reclaimed %d, want 2", got)
	}
	if m.LiveTxns() != 0 || len(m.ConflictEdges(0)) != 0 {
		t.Fatalf("state not fully reclaimed: live=%d edges=%v", m.LiveTxns(), m.ConflictEdges(0))
	}
}

// TestCompactViolationSticky: a violation survives commits and
// compaction attempts untouched.
func TestCompactViolationSticky(t *testing.T) {
	partition := []state.ItemSet{state.NewItemSet("a", "b")}
	m := core.NewMonitor(partition)
	m.Observe(txn.W(1, "a", 1))
	m.Observe(txn.R(2, "a", 1))
	m.Observe(txn.W(2, "b", 1))
	v := m.Observe(txn.R(1, "b", 1)) // closes 1 → 2 → 1
	if v == nil {
		t.Fatal("expected a violation")
	}
	m.Commit(2)
	if got := m.Compact(); got != 0 {
		t.Fatalf("Compact on a violated monitor reclaimed %d, want 0", got)
	}
	if m.Violation() != v {
		t.Fatal("violation not sticky across Commit/Compact")
	}
	if got := m.Observe(txn.R(3, "a", 1)); got != v {
		t.Fatal("post-compaction Observe does not return the sticky violation")
	}
}

// TestLifecycleContractPanics: operations and retractions of committed
// transactions are contract violations and must panic loudly.
func TestLifecycleContractPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	partition := []state.ItemSet{state.NewItemSet("a")}
	m := core.NewMonitor(partition)
	m.Observe(txn.W(1, "a", 1))
	m.Commit(1)
	mustPanic("Observe after Commit", func() { m.Observe(txn.W(1, "a", 2)) })
	mustPanic("Retract after Commit", func() { m.Retract(1) })

	r := core.NewReferenceMonitor(partition)
	r.Observe(txn.W(1, "a", 1))
	r.Commit(1)
	mustPanic("reference Observe after Commit", func() { r.Observe(txn.W(1, "a", 2)) })
	mustPanic("reference Retract after Commit", func() { r.Retract(1) })
}

// lifeStep is one step of a transaction-lifecycle script.
type lifeStep struct {
	kind string // "observe" | "commit" | "retract" | "compact"
	op   txn.Op // kind == "observe"
	txn  int    // kind == "commit" | "retract"
}

func observe(o txn.Op) lifeStep { return lifeStep{kind: "observe", op: o} }
func commit(id int) lifeStep    { return lifeStep{kind: "commit", txn: id} }
func retract(id int) lifeStep   { return lifeStep{kind: "retract", txn: id} }

var compactPass = lifeStep{kind: "compact"}

// randomLifecycle generates a random Observe/Commit/Retract/Compact
// interleaving that respects the lifecycle contract: committed
// transactions never operate and are never retracted. txns ids are
// active at a time; rolling replaces each committed one with a fresh
// id, so the stream keeps going and compaction keeps reclaiming what
// later transactions reuse, where otherwise the script ends once all
// txns have committed.
func randomLifecycle(rng *rand.Rand, steps, txns int, items []string, rolling bool) []lifeStep {
	pool := make([]int, txns) // the active ids, 0 once committed
	for k := range pool {
		pool[k] = k + 1
	}
	next := txns + 1
	active := func() int {
		for tries := 0; tries < 4*txns; tries++ {
			if k := rng.Intn(txns); pool[k] != 0 {
				return k
			}
		}
		return -1
	}
	var script []lifeStep
	for len(script) < steps {
		switch r := rng.Intn(100); {
		case r < 68:
			k := active()
			if k < 0 {
				return script // everything committed
			}
			val := int64(rng.Intn(8))
			o := txn.R(pool[k], items[rng.Intn(len(items))], val)
			if rng.Intn(2) == 0 {
				o = txn.W(o.Txn, o.Entity, val)
			}
			script = append(script, observe(o))
		case r < 80:
			if k := active(); k >= 0 {
				script = append(script, commit(pool[k]))
				pool[k] = 0
				if rolling {
					pool[k], next = next, next+1
				}
			}
		case r < 88:
			if k := active(); k >= 0 {
				script = append(script, retract(pool[k]))
			}
		default:
			script = append(script, compactPass)
		}
	}
	return script
}

// randomLifecycleCase draws a partition over one to six items
// (overlapping conjuncts when overlap is set) and a lifecycle script
// over it, four times longer when rolling.
func randomLifecycleCase(rng *rand.Rand, overlap, rolling bool) ([]state.ItemSet, []lifeStep) {
	items := make([]string, 1+rng.Intn(6))
	for i := range items {
		items[i] = fmt.Sprintf("x%d", i)
	}
	partition := randomPartition(rng, items, overlap)
	txns := 2 + rng.Intn(5)
	steps := 20 + rng.Intn(80)
	if rolling {
		steps *= 4
	}
	return partition, randomLifecycle(rng, steps, txns, items, rolling)
}

// lifecycleTally counts what lifecycle differentials exercised:
// violating scripts, reclaiming compactions, and node slots a pass
// reclaimed that a later observation was handed again (a Spares count
// that falls across an observation).
type lifecycleTally struct {
	violations, reclaims, reusedSlots int
}

// lifecycleDifferential replays one script through the compacting
// Monitor, the ReferenceMonitor rebuild spec, and an uncompacted
// Monitor fed the same operations and retractions (commits ignored),
// all with automatic compaction off so every pass is explicit. The
// compacting monitor and the reference must stay in identical states —
// verdicts, flagged operations, op counts, live-transaction counts and
// lifecycle counters — and the uncompacted monitor must reach the same
// verdict at every step, with its extra edges all incident to committed
// transactions. A rolling script is gated like a certifier's stream: a
// denied requester is aborted, so the script runs to its end.
func lifecycleDifferential(t *testing.T, name string, partition []state.ItemSet, script []lifeStep, rolling bool, tally *lifecycleTally) {
	t.Helper()
	cm := core.NewMonitor(partition)
	cm.SetAutoCompact(0)
	ref := core.NewReferenceMonitor(partition)
	un := core.NewMonitor(partition)
	un.SetAutoCompact(0)
	committed := make(map[int]bool)
	for _, st := range script {
		if st.kind == "observe" {
			// Probe parity first: a certifier would preflight.
			ok := cm.Admissible(st.op)
			if want := un.Admissible(st.op); ok != want {
				t.Fatalf("%s: Admissible(%v) = %v (compacting) vs %v (uncompacted)", name, st.op, ok, want)
			}
			if rolling && !ok {
				st = retract(st.op.Txn)
			}
		}
		switch st.kind {
		case "observe":
			spares := cm.Spares()
			vCm := cm.Observe(st.op)
			if cm.Spares() < spares {
				tally.reusedSlots++
			}
			vRef := ref.Observe(st.op)
			vUn := un.Observe(st.op)
			if (vCm == nil) != (vRef == nil) || (vCm == nil) != (vUn == nil) {
				t.Fatalf("%s: verdict split at %v: compacting %v, reference %v, uncompacted %v",
					name, st.op, vCm, vRef, vUn)
			}
			if vCm != nil {
				tally.violations++
				if vCm.Conjunct != vRef.Conjunct || vCm.Op != vRef.Op {
					t.Fatalf("%s: flagged C%d %v (compacting) vs C%d %v (reference)",
						name, vCm.Conjunct, vCm.Op, vRef.Conjunct, vRef.Op)
				}
				if vCm.Conjunct != vUn.Conjunct || vCm.Op != vUn.Op {
					t.Fatalf("%s: flagged C%d %v (compacting) vs C%d %v (uncompacted)",
						name, vCm.Conjunct, vCm.Op, vUn.Conjunct, vUn.Op)
				}
				validLifecycleCycle(t, name, un, vUn)
				// Sticky across the whole stack.
				if o := txn.R(1, st.op.Entity, 0); cm.Admissible(o) || un.Admissible(o) {
					t.Fatalf("%s: violated monitor still admits", name)
				}
				return
			}
		case "commit":
			cm.Commit(st.txn)
			ref.Commit(st.txn)
			committed[st.txn] = true
		case "retract":
			cm.Retract(st.txn)
			ref.Retract(st.txn)
			un.Retract(st.txn)
		case "compact":
			nCm := cm.Compact()
			nRef := ref.Compact()
			if nCm > 0 {
				tally.reclaims++
			}
			if nCm != nRef {
				t.Fatalf("%s: Compact reclaimed %d (compacting) vs %d (reference)", name, nCm, nRef)
			}
		}

		// State parity after every step.
		if cm.Ops() != ref.Ops() || cm.Ops() != un.Ops() {
			t.Fatalf("%s: ops %d (compacting) vs %d (reference) vs %d (uncompacted)",
				name, cm.Ops(), ref.Ops(), un.Ops())
		}
		if cm.LiveTxns() != ref.LiveTxns() {
			t.Fatalf("%s: live %d (compacting) vs %d (reference)", name, cm.LiveTxns(), ref.LiveTxns())
		}
		if un.LiveTxns() < cm.LiveTxns() {
			t.Fatalf("%s: uncompacted live %d below compacting live %d", name, un.LiveTxns(), cm.LiveTxns())
		}
		if got, want := cm.CompactStats(), ref.CompactStats(); got != want {
			t.Fatalf("%s: stats %+v, reference %+v", name, got, want)
		}
		for e := range partition {
			// The reference draws edges from every historical writer
			// where Monitor draws the reachability-preserving frontier
			// subset, so edge SETS are compared only among the
			// frontier-based monitors; the reference pins verdicts,
			// counters, and removability (reachability is identical
			// across the two edge drawings).
			cmEdges := cm.ConflictEdges(e)
			unEdges := un.ConflictEdges(e)
			for _, edge := range unEdges {
				if !slices.Contains(cmEdges, edge) && !committed[edge[0]] && !committed[edge[1]] {
					t.Fatalf("%s: conjunct %d edge %v dropped without a committed endpoint", name, e, edge)
				}
			}
			for _, edge := range cmEdges {
				if !slices.Contains(unEdges, edge) {
					t.Fatalf("%s: conjunct %d compacted edge %v absent from the uncompacted monitor", name, e, edge)
				}
			}
		}
	}
}

// lifecycleScripts are the lifecycle shapes the differential must
// always see, whatever the random sweep happens to draw.
var lifecycleScripts = []struct {
	name      string
	partition []state.ItemSet
	script    []lifeStep
}{
	// T1 finishes and is reclaimed, then the live transactions close a
	// genuine cycle: the violation fires at the same operation and
	// conjunct with and without compaction.
	{"commit-before-violation", []state.ItemSet{state.NewItemSet("a", "b")}, []lifeStep{
		observe(txn.W(1, "a", 1)), observe(txn.R(2, "a", 1)), commit(1), compactPass,
		observe(txn.W(3, "a", 2)), observe(txn.R(2, "a", 2)),
	}},
	// T2 is retracted before T1 commits, compaction reclaims T1 from
	// the repaired graphs, and T2 restarts against the compacted state:
	// frontier repair and physical removal compose.
	{"compact-across-retract", []state.ItemSet{state.NewItemSet("a", "b"), state.NewItemSet("c")}, []lifeStep{
		observe(txn.W(1, "a", 1)), observe(txn.R(2, "a", 1)), observe(txn.W(2, "c", 1)), retract(2),
		commit(1), compactPass,
		observe(txn.W(3, "a", 2)), observe(txn.R(2, "a", 2)), observe(txn.W(2, "b", 1)), observe(txn.R(3, "c", 0)),
	}},
	// T2 commits while live T1 still reaches it, so compaction must
	// retain T2 (it can still join a cycle T1 closes); once T1 commits
	// the whole region is reclaimed and fresh traffic starts from an
	// empty graph.
	{"pinned-by-live-ancestor", []state.ItemSet{state.NewItemSet("a")}, []lifeStep{
		observe(txn.W(1, "a", 1)), observe(txn.R(2, "a", 1)), commit(2), compactPass,
		commit(1), compactPass, observe(txn.W(3, "a", 2)), observe(txn.R(4, "a", 2)),
	}},
	// Eight singleton conjuncts: transactions whose operations live in
	// different conjuncts commit out of id order, moving the compaction
	// watermark across conjunct boundaries between admissions.
	{"watermark-across-conjuncts", []state.ItemSet{
		state.NewItemSet("x0"), state.NewItemSet("x1"), state.NewItemSet("x2"), state.NewItemSet("x3"),
		state.NewItemSet("x4"), state.NewItemSet("x5"), state.NewItemSet("x6"), state.NewItemSet("x7"),
	}, []lifeStep{
		observe(txn.W(1, "x0", 1)), observe(txn.W(1, "x7", 1)), observe(txn.R(2, "x0", 1)), observe(txn.W(3, "x3", 1)),
		commit(3), compactPass, commit(1), compactPass,
		observe(txn.R(4, "x7", 1)), observe(txn.W(2, "x4", 1)), commit(2), commit(4), compactPass,
	}},
}

// TestCompactDifferential is the commit-and-compact safety net: the
// named lifecycle shapes, then 160 random scripts, through
// lifecycleDifferential. Every other random script is a long rolling
// stream of fresh transactions, so what a pass reclaims — node slots
// with their lists, conjunct lists — is handed out again to later
// transactions; the sweep fails as vacuous unless that, violations and
// reclaiming passes all occurred often.
func TestCompactDifferential(t *testing.T) {
	for _, c := range lifecycleScripts {
		lifecycleDifferential(t, c.name, c.partition, c.script, false, &lifecycleTally{})
	}
	rng := rand.New(rand.NewSource(91))
	var tally lifecycleTally
	for trial := 0; trial < 160; trial++ {
		rolling := trial%2 == 1
		partition, script := randomLifecycleCase(rng, trial%3 == 0, rolling)
		lifecycleDifferential(t, fmt.Sprintf("trial %d", trial), partition, script, rolling, &tally)
	}
	if tally.violations < 15 {
		t.Fatalf("only %d violating trials; differential coverage too thin", tally.violations)
	}
	if tally.reclaims < 30 {
		t.Fatalf("only %d reclaiming compactions; differential coverage too thin", tally.reclaims)
	}
	if tally.reusedSlots < 100 {
		t.Fatalf("recycling too thin: %d recycled slots handed out", tally.reusedSlots)
	}
	t.Logf("%d violating trials, %d reclaiming passes; %d recycled slots handed out",
		tally.violations, tally.reclaims, tally.reusedSlots)
}

// FuzzCommitCompact runs lifecycleDifferential over the random script
// a fuzzed seed draws; plain go test replays the four seeds below.
func FuzzCommitCompact(f *testing.F) {
	f.Add(int64(1), false, false)
	f.Add(int64(2), true, false)
	f.Add(int64(3), false, true)
	f.Add(int64(4), true, true)
	f.Fuzz(func(t *testing.T, seed int64, overlap, rolling bool) {
		partition, script := randomLifecycleCase(rand.New(rand.NewSource(seed)), overlap, rolling)
		lifecycleDifferential(t, fmt.Sprintf("seed %d", seed), partition, script, rolling, &lifecycleTally{})
	})
}

// validLifecycleCycle checks a reported witness cycle against the
// uncompacted monitor's surviving conflict edges. Lifecycle scripts
// interleave retractions, so there is no pristine schedule to replay
// (diff_test's validCycle); instead every consecutive pair of the
// cycle must be an edge the uncompacted monitor holds — except edges
// into the violating transaction, which the flagged (unrecorded,
// sticky) operation would have drawn.
func validLifecycleCycle(t *testing.T, name string, un *core.Monitor, v *core.Violation) {
	t.Helper()
	cycle := v.Cycle
	if len(cycle) < 3 || cycle[0] != cycle[len(cycle)-1] {
		t.Fatalf("%s: malformed cycle %v", name, cycle)
	}
	edges := un.ConflictEdges(v.Conjunct)
	for i := 0; i+1 < len(cycle); i++ {
		pair := [2]int{cycle[i], cycle[i+1]}
		if pair[1] == v.Op.Txn {
			continue // the edge the flagged operation would draw
		}
		if !slices.Contains(edges, pair) {
			t.Fatalf("%s: cycle %v: %d -> %d is not a surviving conflict edge", name, cycle, pair[0], pair[1])
		}
	}
}

// TestAutoCompactPreservesVerdicts drives a committing stream with the
// automatic trigger at its most aggressive (every commit) against an
// uncompacted monitor: verdicts and flagged operations must never
// diverge, whatever the compaction cadence.
func TestAutoCompactPreservesVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	violations := 0
	for trial := 0; trial < 120; trial++ {
		nItems := 1 + rng.Intn(5)
		items := make([]string, nItems)
		for i := range items {
			items[i] = fmt.Sprintf("x%d", i)
		}
		partition := randomPartition(rng, items, trial%2 == 0)
		txns := 2 + rng.Intn(5)
		script := randomLifecycle(rng, 30+rng.Intn(60), txns, items, false)

		auto := core.NewMonitor(partition)
		auto.SetAutoCompact(1)
		un := core.NewMonitor(partition)
		un.SetAutoCompact(0)
		for _, st := range script {
			switch st.kind {
			case "observe":
				vAuto, vUn := auto.Observe(st.op), un.Observe(st.op)
				if (vAuto == nil) != (vUn == nil) {
					t.Fatalf("trial %d: auto-compacting verdict %v vs uncompacted %v at %v", trial, vAuto, vUn, st.op)
				}
				if vAuto != nil {
					if vAuto.Conjunct != vUn.Conjunct || vAuto.Op != vUn.Op {
						t.Fatalf("trial %d: flagged C%d %v vs C%d %v", trial, vAuto.Conjunct, vAuto.Op, vUn.Conjunct, vUn.Op)
					}
					violations++
				}
			case "commit":
				auto.Commit(st.txn)
			case "retract":
				auto.Retract(st.txn)
				un.Retract(st.txn)
			case "compact":
				auto.Compact()
			}
			if !auto.PWSR() {
				break
			}
		}
	}
	if violations < 10 {
		t.Fatalf("only %d violating trials; coverage too thin", violations)
	}
}

// TestDirectTableTracksLiveWindow pins the direct-index translation
// table's re-basing: 10^5 ascending transaction ids through an
// auto-compacting monitor — a persistent gate's stream, a sliding
// window of them in flight — leave the table as long as the window of
// ids compaction has not yet reclaimed, not as long as the largest id.
// Ids the window has moved past still resolve, through the interner.
func TestDirectTableTracksLiveWindow(t *testing.T) {
	const ids, inFlight, every = 100_000, 32, 64
	m := core.NewMonitor([]state.ItemSet{state.NewItemSet("x", "y")})
	m.SetAutoCompact(every)
	straggler := 7 // observed early, commits last: below every later base
	longest := 0
	for id := 1; id <= ids; id++ {
		if v := m.Observe(txn.R(id, "x", 0)); v != nil {
			t.Fatalf("T%d: %v", id, v)
		}
		if done := id - inFlight; done >= 1 && done != straggler {
			m.Commit(done)
		}
		if id == ids/2 {
			m.Commit(straggler)
			m.Compact()
		}
		if id > ids/2 {
			longest = max(longest, m.DirectTableLen())
		}
	}
	if bound := 2 * (inFlight + every); longest > bound {
		t.Fatalf("direct table reached %d entries over %d ascending ids, want at most %d (the live window)", longest, ids, bound)
	}
	// A late operation by an id far below the base interns through the
	// fallback and keeps resolving.
	if v := m.Observe(txn.R(3, "y", 0)); v != nil {
		t.Fatal(v)
	}
	if !m.Admissible(txn.R(3, "x", 0)) {
		t.Fatal("an id below the table's base stopped resolving")
	}
	if got := m.DirectTableLen(); got > 2*(inFlight+every) {
		t.Fatalf("an id below the base stretched the table to %d entries", got)
	}
}
