package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/experiments"
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

// lifeStep is one step of a generated transaction-lifecycle script.
type lifeStep struct {
	kind string // "observe" | "commit" | "retract" | "compact"
	op   txn.Op // kind == "observe"
	txn  int    // kind == "commit" | "retract"
}

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
			script = append(script, lifeStep{kind: "observe", op: o})
		case r < 80:
			if k := active(); k >= 0 {
				script = append(script, lifeStep{kind: "commit", txn: pool[k]})
				pool[k] = 0
				if rolling {
					pool[k], next = next, next+1
				}
			}
		case r < 88:
			if k := active(); k >= 0 {
				script = append(script, lifeStep{kind: "retract", txn: pool[k]})
			}
		default:
			script = append(script, lifeStep{kind: "compact"})
		}
	}
	return script
}

// sameStats asserts two lifecycle counter snapshots agree.
func sameStats(t *testing.T, trial int, label string, got, want core.CompactStats) {
	t.Helper()
	if got != want {
		t.Fatalf("trial %d: %s stats %+v, want %+v", trial, label, got, want)
	}
}

// TestCompactDifferential is the tentpole's safety net: random
// Observe/Commit/Retract/Compact interleavings must leave the
// compacting Monitor, the ReferenceMonitor rebuild spec, and the
// ShardedMonitor at every shard count 1..8 in identical states —
// verdicts, flagged operations, witness cycles (monitor vs sharded),
// op counts, live-transaction counts, lifecycle counters, and
// per-conjunct live-edge sets — while an uncompacted Monitor fed the
// same operations and retractions (commits ignored) must reach the
// same verdict at every step, with its extra edges all incident to
// committed transactions. Every other trial is a long rolling stream
// of fresh transactions, gated like a certifier's (a denied requester
// is aborted), so what a pass reclaims — node slots with their lists,
// conjunct lists, transaction-table entries — is handed out again to
// later transactions; the test counts those hand-outs (a Spares or
// FreeEntries count that falls across an observation) and fails as
// vacuous unless each kind occurred often.
func TestCompactDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	violations, reclaims := 0, 0
	reusedSlots, reusedShardSlots, reusedEntries := 0, 0, 0
	for trial := 0; trial < 160; trial++ {
		nItems := 1 + rng.Intn(6)
		items := make([]string, nItems)
		for i := range items {
			items[i] = fmt.Sprintf("x%d", i)
		}
		partition := randomPartition(rng, items, trial%3 == 0)
		txns := 2 + rng.Intn(5)
		rolling := trial%2 == 1
		steps := 20 + rng.Intn(80)
		if rolling {
			steps *= 4
		}
		script := randomLifecycle(rng, steps, txns, items, rolling)

		cm := core.NewMonitor(partition)
		cm.SetAutoCompact(0)
		ref := core.NewReferenceMonitor(partition)
		un := core.NewMonitor(partition)
		un.SetAutoCompact(0)
		var sms []*core.ShardedMonitor
		for shards := 1; shards <= 8; shards++ {
			sm := core.NewShardedMonitor(partition, shards)
			sm.SetAutoCompact(0)
			sms = append(sms, sm)
		}
		committed := make(map[int]bool)
		maxCommitted := 0
		var trace []string

		violated := false
	stepLoop:
		for _, st := range script {
			if st.kind == "observe" {
				// Probe parity first: a certifier would preflight. A
				// rolling stream is gated like a certifier's: a denied
				// requester is aborted, so the stream runs to its end.
				ok := cm.Admissible(st.op)
				if want := un.Admissible(st.op); ok != want {
					t.Fatalf("trial %d: Admissible(%v) = %v (compacting) vs %v (uncompacted)", trial, st.op, ok, want)
				}
				if rolling && !ok {
					st = lifeStep{kind: "retract", txn: st.op.Txn}
				}
			}
			switch st.kind {
			case "observe":
				trace = append(trace, st.op.String())
			case "commit", "retract":
				trace = append(trace, fmt.Sprintf("%s %d", st.kind, st.txn))
			default:
				trace = append(trace, st.kind)
			}
			switch st.kind {
			case "observe":
				spares := cm.Spares()
				vCm := cm.Observe(st.op)
				if cm.Spares() < spares {
					reusedSlots++
				}
				vRef := ref.Observe(st.op)
				vUn := un.Observe(st.op)
				if (vCm == nil) != (vRef == nil) || (vCm == nil) != (vUn == nil) {
					t.Fatalf("trial %d: verdict split at %v: compacting %v, reference %v, uncompacted %v",
						trial, st.op, vCm, vRef, vUn)
				}
				for si, sm := range sms {
					spares, free := sm.Spares(), sm.FreeEntries()
					vSm := sm.Observe(st.op)
					if sm.Shards() > 1 && sm.Spares() < spares {
						reusedShardSlots++
					}
					if sm.FreeEntries() < free {
						reusedEntries++
					}
					if (vSm == nil) != (vCm == nil) {
						t.Fatalf("trial %d: shards=%d verdict %v vs monitor %v", trial, si+1, vSm, vCm)
					}
					if vCm != nil {
						sameViolation(t, trial, vSm, vCm)
					}
				}
				if vCm != nil {
					violations++
					if vCm.Conjunct != vRef.Conjunct || vCm.Op != vRef.Op {
						t.Fatalf("trial %d: flagged C%d %v (compacting) vs C%d %v (reference)",
							trial, vCm.Conjunct, vCm.Op, vRef.Conjunct, vRef.Op)
					}
					if vCm.Conjunct != vUn.Conjunct || vCm.Op != vUn.Op {
						t.Fatalf("trial %d: flagged C%d %v (compacting) vs C%d %v (uncompacted)",
							trial, vCm.Conjunct, vCm.Op, vUn.Conjunct, vUn.Op)
					}
					validLifecycleCycle(t, trial, un, vUn)
					violated = true
					break stepLoop
				}
			case "commit":
				cm.Commit(st.txn)
				ref.Commit(st.txn)
				committed[st.txn] = true
				maxCommitted = max(maxCommitted, st.txn)
				for _, sm := range sms {
					sm.Commit(st.txn)
				}
			case "retract":
				cm.Retract(st.txn)
				ref.Retract(st.txn)
				un.Retract(st.txn)
				for _, sm := range sms {
					sm.Retract(st.txn)
				}
			case "compact":
				nCm := cm.Compact()
				nRef := ref.Compact()
				if nCm > 0 {
					reclaims++
				}
				if nCm != nRef {
					t.Fatalf("trial %d: Compact reclaimed %d (compacting) vs %d (reference)", trial, nCm, nRef)
				}
				for si, sm := range sms {
					if nSm := sm.Compact(); nSm != nCm {
						t.Fatalf("trial %d: shards=%d Compact reclaimed %d vs monitor %d", trial, si+1, nSm, nCm)
					}
				}
			}

			// State parity after every step.
			if cm.Ops() != ref.Ops() || cm.Ops() != un.Ops() {
				t.Fatalf("trial %d: ops %d (compacting) vs %d (reference) vs %d (uncompacted)",
					trial, cm.Ops(), ref.Ops(), un.Ops())
			}
			if cm.LiveTxns() != ref.LiveTxns() {
				t.Fatalf("trial %d: live %d (compacting) vs %d (reference)", trial, cm.LiveTxns(), ref.LiveTxns())
			}
			if un.LiveTxns() < cm.LiveTxns() {
				t.Fatalf("trial %d: uncompacted live %d below compacting live %d", trial, un.LiveTxns(), cm.LiveTxns())
			}
			sameStats(t, trial, "reference", ref.CompactStats(), cm.CompactStats())
			for e := range partition {
				// The reference draws edges from every historical
				// writer where Monitor draws the reachability-preserving
				// frontier subset, so edge SETS are compared only among
				// the frontier-based monitors; the reference pins
				// verdicts, counters, and removability (reachability is
				// identical across the two edge drawings).
				cmEdges := cm.ConflictEdges(e)
				for _, edge := range un.ConflictEdges(e) {
					if slices.Contains(cmEdges, edge) {
						continue
					}
					if !committed[edge[0]] && !committed[edge[1]] {
						t.Fatalf("trial %d: conjunct %d edge %v dropped without a committed endpoint", trial, e, edge)
					}
				}
				for _, edge := range cmEdges {
					if !slices.Contains(un.ConflictEdges(e), edge) {
						t.Fatalf("trial %d: conjunct %d compacted edge %v absent from the uncompacted monitor", trial, e, edge)
					}
				}
			}
			for si, sm := range sms {
				if sm.Ops() != cm.Ops() {
					t.Fatalf("trial %d: shards=%d ops %d vs monitor %d", trial, si+1, sm.Ops(), cm.Ops())
				}
				if sm.LiveTxns() != cm.LiveTxns() {
					t.Fatalf("trial %d: shards=%d live %d vs monitor %d", trial, si+1, sm.LiveTxns(), cm.LiveTxns())
				}
				if got, want := sm.InFlightTxnIDs(), cm.InFlightTxnIDs(); !slices.Equal(got, want) {
					t.Fatalf("trial %d: shards=%d in-flight %v vs monitor %v", trial, si+1, got, want)
				}
				sameStats(t, trial, fmt.Sprintf("shards=%d", si+1), sm.CompactStats(), cm.CompactStats())
				for e := range partition {
					if got, want := sm.ConflictEdges(e), cm.ConflictEdges(e); !slices.Equal(got, want) {
						t.Fatalf("trial %d: shards=%d conjunct %d edges %v vs %v\ntrace: %v",
							trial, si+1, e, got, want, trace)
					}
				}
				if got := sm.Watermark(); got != maxCommitted {
					t.Fatalf("trial %d: shards=%d watermark %d, want %d", trial, si+1, got, maxCommitted)
				}
			}
		}
		if violated {
			// Sticky across the whole stack.
			o := txn.R(1, items[0], 0)
			if cm.Admissible(o) || un.Admissible(o) {
				t.Fatalf("trial %d: violated monitor still admits", trial)
			}
		}
	}
	if violations < 15 {
		t.Fatalf("only %d violating trials; differential coverage too thin", violations)
	}
	if reclaims < 30 {
		t.Fatalf("only %d reclaiming compactions; differential coverage too thin", reclaims)
	}
	if reusedSlots < 100 || reusedShardSlots < 100 || reusedEntries < 100 {
		t.Fatalf("recycling too thin: %d recycled slots handed out by Monitor, %d by multi-shard monitors, %d table entries", reusedSlots, reusedShardSlots, reusedEntries)
	}
	t.Logf("%d violating trials, %d reclaiming passes; recycled slots handed out: %d by Monitor, %d by multi-shard monitors; %d table entries", violations, reclaims, reusedSlots, reusedShardSlots, reusedEntries)
}

// validLifecycleCycle checks a reported witness cycle against the
// uncompacted monitor's surviving conflict edges. Lifecycle scripts
// interleave retractions, so there is no pristine schedule to replay
// (diff_test's validCycle); instead every consecutive pair of the
// cycle must be an edge the uncompacted monitor holds — except edges
// into the violating transaction, which the flagged (unrecorded,
// sticky) operation would have drawn.
func validLifecycleCycle(t *testing.T, trial int, un *core.Monitor, v *core.Violation) {
	t.Helper()
	cycle := v.Cycle
	if len(cycle) < 3 || cycle[0] != cycle[len(cycle)-1] {
		t.Fatalf("trial %d: malformed cycle %v", trial, cycle)
	}
	edges := un.ConflictEdges(v.Conjunct)
	for i := 0; i+1 < len(cycle); i++ {
		pair := [2]int{cycle[i], cycle[i+1]}
		if pair[1] == v.Op.Txn {
			continue // the edge the flagged operation would draw
		}
		if !slices.Contains(edges, pair) {
			t.Fatalf("trial %d: cycle %v: %d -> %d is not a surviving conflict edge", trial, cycle, pair[0], pair[1])
		}
	}
}

// TestShardedCompactConcurrent is the -race stress for the lifecycle
// paths: concurrent observers on disjoint shard groups commit each
// transaction as its stream completes it, while a compactor goroutine
// races Compact passes against the admission traffic. At the end every
// transaction is committed, so a final pass must reclaim everything:
// zero live transactions and every logged operation returned.
func TestShardedCompactConcurrent(t *testing.T) {
	const workers, itemsPer, opsPer = 8, 6, 300
	grid := experiments.NewShardedGrid(workers, itemsPer, opsPer, 93)
	for _, shards := range []int{2, 8} {
		sm := core.NewShardedMonitor(grid.Partition, shards)
		sm.SetAutoCompact(64)
		admitted := make([]int, workers)
		stop := make(chan struct{})
		var compactorDone sync.WaitGroup
		compactorDone.Add(1)
		go func() {
			defer compactorDone.Done()
			for {
				select {
				case <-stop:
					return
				default:
					sm.Compact()
				}
			}
		}()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				stream := grid.Groups[w]
				last := make(map[int]int, 32)
				for i, o := range stream {
					last[o.Txn] = i
				}
				for i, o := range stream {
					if sm.Admissible(o) {
						if v := sm.Observe(o); v != nil {
							t.Errorf("worker %d: violation on certified admission: %v", w, v)
							return
						}
						admitted[w]++
					}
					if last[o.Txn] == i {
						sm.Commit(o.Txn)
					}
				}
			}(w)
		}
		wg.Wait()
		close(stop)
		compactorDone.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if !sm.PWSR() {
			t.Fatalf("shards=%d: concurrent lifecycle feed violated: %v", shards, sm.Violation())
		}
		sm.Compact()
		total := 0
		for _, n := range admitted {
			total += n
		}
		st := sm.CompactStats()
		if st.LiveTxns != 0 {
			t.Fatalf("shards=%d: %d live transactions after everything committed and compacted", shards, st.LiveTxns)
		}
		if st.ReclaimedOps != total {
			t.Fatalf("shards=%d: reclaimed %d log entries, want %d (all admitted ops)", shards, st.ReclaimedOps, total)
		}
		if sm.Watermark() == 0 {
			t.Fatalf("shards=%d: watermark never advanced", shards)
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
