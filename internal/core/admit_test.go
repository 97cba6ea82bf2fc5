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

// admitSequenceRef is what AdmitSequence must be equivalent to,
// expressed through the public per-op entry points on an independent
// certifier: probe each operation, observe it on success, and on the
// first denial retract the observed prefix. AdmitSequence itself does
// not probe, since a fresh sequence is never denied; the test fails if
// this reference ever denies one.
func admitSequenceRef(m *core.Monitor, ops []txn.Op) (bool, *core.Violation) {
	if v := m.Violation(); v != nil {
		return false, v
	}
	for i, o := range ops {
		if !m.Admissible(o) {
			if i > 0 {
				m.Retract(ops[0].Txn)
			}
			return false, nil
		}
		if v := m.Observe(o); v != nil {
			return false, v
		}
	}
	return true, nil
}

// sameViolation asserts two violations agree on nil-ness, conjunct,
// flagged operation, and witness cycle.
func sameViolation(t *testing.T, trial int, got, want *core.Violation) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("trial %d: %v vs reference %v", trial, got, want)
	}
	if got == nil {
		return
	}
	if got.Conjunct != want.Conjunct || got.Op != want.Op {
		t.Fatalf("trial %d: flagged C%d %v, reference C%d %v",
			trial, got.Conjunct, got.Op, want.Conjunct, want.Op)
	}
	if !slices.Equal(got.Cycle, want.Cycle) {
		t.Fatalf("trial %d: cycle %v vs reference cycle %v", trial, got.Cycle, want.Cycle)
	}
}

// lifecycleTape records a LifecycleSink stream as text, one line per
// record.
type lifecycleTape struct{ lines []string }

func (r *lifecycleTape) LogObserve(o txn.Op) { r.lines = append(r.lines, "observe "+o.String()) }
func (r *lifecycleTape) LogCommit(id int)    { r.lines = append(r.lines, fmt.Sprint("commit ", id)) }
func (r *lifecycleTape) LogRetract(id int)   { r.lines = append(r.lines, fmt.Sprint("retract ", id)) }
func (r *lifecycleTape) LogCompact(reclaimed []int, st core.CompactStats, ops int) {
	r.lines = append(r.lines, fmt.Sprintf("compact %v %+v ops=%d", reclaimed, st, ops))
}

// sameLifecycle asserts two monitors agree on everything the lifecycle
// exposes: surviving op count, resident and in-flight transaction ids,
// lifecycle counters, compaction watermark, and the emitted sink
// streams record for record.
func sameLifecycle(t *testing.T, trial int, got, want *core.Monitor, gotTape, wantTape *lifecycleTape) {
	t.Helper()
	if g, w := got.Ops(), want.Ops(); g != w {
		t.Fatalf("trial %d: ops %d vs reference %d", trial, g, w)
	}
	if g, w := got.LiveTxnIDs(), want.LiveTxnIDs(); !slices.Equal(g, w) {
		t.Fatalf("trial %d: live ids %v vs reference %v", trial, g, w)
	}
	if g, w := got.InFlightTxnIDs(), want.InFlightTxnIDs(); !slices.Equal(g, w) {
		t.Fatalf("trial %d: in-flight ids %v vs reference %v", trial, g, w)
	}
	if g, w := got.CompactStats(), want.CompactStats(); g != w {
		t.Fatalf("trial %d: stats %+v vs reference %+v", trial, g, w)
	}
	if g, w := got.CompactWatermark(), want.CompactWatermark(); g != w {
		t.Fatalf("trial %d: compaction watermark %d vs reference %d", trial, g, w)
	}
	if !slices.Equal(gotTape.lines, wantTape.lines) {
		for i := range min(len(gotTape.lines), len(wantTape.lines)) {
			if gotTape.lines[i] != wantTape.lines[i] {
				t.Fatalf("trial %d: sink record %d is %q, reference %q", trial, i, gotTape.lines[i], wantTape.lines[i])
			}
		}
		t.Fatalf("trial %d: %d sink records vs reference %d", trial, len(gotTape.lines), len(wantTape.lines))
	}
}

// TestAdmitSequenceDifferential interleaves whole-transaction
// sequences with per-operation traffic, commits, retractions and
// compaction passes — the mixed regime a shared gate produces — and
// asserts Monitor.AdmitSequence agrees with the per-op reference loop
// on a second Monitor: same verdicts, same violations, and after every
// step the same surviving op counts, resident and in-flight transaction
// sets, lifecycle counters, compaction watermark, per-conjunct conflict
// edges and — record for record — the same LifecycleSink stream. Half
// the trials spread the items over 8..10 conjuncts, so a transaction
// usually touches a strict subset of the graphs. Ids are handed out in
// ascending order of first use, like the engines'. Sequences of fresh
// transactions are never denied (the commit-order serial-equivalence
// argument in the AdmitSequence doc), so the interleaved per-op traffic
// is what supplies violations; once one trips, the sequence path must
// surface the sticky verdict. The test asserts every regime actually
// occurred, and that the passes reclaimed enough for fresh sequences
// to be handed recycled node slots and conjunct lists often (a Spares
// count that falls across an admission).
func TestAdmitSequenceDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	accepts, stickyDenials, reclaims, readmits, reretracts := 0, 0, 0, 0, 0
	reusedSlots := 0
	for trial := 0; trial < 150; trial++ {
		nItems := 2 + rng.Intn(6)
		wide := trial%2 == 1
		if wide {
			nItems = 8 + rng.Intn(6)
		}
		items := make([]string, nItems)
		for i := range items {
			items[i] = fmt.Sprintf("x%d", i)
		}
		partition := randomPartition(rng, items, trial%3 == 0)
		if wide {
			partition = make([]state.ItemSet, 8+rng.Intn(3))
			for e := range partition {
				partition[e] = state.NewItemSet()
			}
			for _, it := range items {
				partition[rng.Intn(len(partition))].Add(it)
				if trial%3 == 0 && rng.Intn(3) == 0 {
					partition[rng.Intn(len(partition))].Add(it)
				}
			}
		}
		autoEvery := []int{0, 2, 5}[trial%3]

		ref := core.NewMonitor(partition)
		ref.SetAutoCompact(autoEvery)
		refTape := &lifecycleTape{}
		ref.SetSink(refTape)
		mon := core.NewMonitor(partition)
		mon.SetAutoCompact(autoEvery)
		monTape := &lifecycleTape{}
		mon.SetSink(monTape)
		randOp := func(id int) txn.Op {
			entity := items[rng.Intn(len(items))]
			if rng.Intn(2) == 0 {
				return txn.R(id, entity, int64(rng.Intn(8)))
			}
			return txn.W(id, entity, int64(rng.Intn(8)))
		}

		// Interactive transactions fed per-op and batch transactions fed
		// as whole sequences, ids ascending in order of first use; live
		// holds the uncommitted ones. The loop keeps running for a few
		// steps after a violation so the sequence path meets the sticky
		// verdict too.
		nextID := 1
		interactive := make([]int, 4)
		live := make(map[int]bool)
		var retracted []int // batch ids rolled back, free to be re-admitted
		pickLive := func() int {
			ids := make([]int, 0, len(live))
			for id := range live {
				ids = append(ids, id)
			}
			if len(ids) == 0 {
				return 0
			}
			slices.Sort(ids)
			return ids[rng.Intn(len(ids))]
		}
		finish := func(id int) {
			delete(live, id)
			for k, x := range interactive {
				if x == id {
					interactive[k] = 0
				}
			}
		}
		violated := false
		steps := 16 + rng.Intn(28)
		for step := 0; step < steps; step++ {
			switch r := rng.Intn(100); {
			case r < 35:
				// One per-op observation of an interactive transaction:
				// this is the traffic that can close cycles.
				k := rng.Intn(len(interactive))
				if interactive[k] == 0 {
					interactive[k] = nextID
					nextID++
				}
				o := randOp(interactive[k])
				live[o.Txn] = true
				wantV := ref.Observe(o)
				sameViolation(t, trial, mon.Observe(o), wantV)
				violated = wantV != nil
			case r < 70:
				id := nextID
				if len(retracted) > 0 && rng.Intn(2) == 0 {
					id, retracted = retracted[0], retracted[1:]
					readmits++
				} else {
					nextID++
				}
				seq := make([]txn.Op, 1+rng.Intn(5))
				for i := range seq {
					seq[i] = randOp(id)
				}
				wantOK, wantV := admitSequenceRef(ref, seq)
				spares := mon.Spares()
				gotOK, gotV := mon.AdmitSequence(seq)
				if mon.Spares() < spares {
					reusedSlots++
				}
				if gotOK != wantOK {
					t.Fatalf("trial %d T%d: Monitor.AdmitSequence %v, reference %v", trial, id, gotOK, wantOK)
				}
				sameViolation(t, trial, gotV, wantV)
				switch {
				case wantOK:
					accepts++
					live[id] = true
					if rng.Intn(3) == 0 {
						finish(id)
						ref.Commit(id)
						mon.Commit(id)
					}
				case wantV != nil:
					stickyDenials++
					violated = true
				default:
					t.Fatalf("trial %d T%d: fresh sequence denied without a violation", trial, id)
				}
			case r < 80:
				if id := pickLive(); id != 0 {
					finish(id)
					ref.Commit(id)
					mon.Commit(id)
				}
			case r < 90:
				// Retraction is a contract violation on a violated monitor.
				// One time in four it hits a transaction already rolled
				// back, which the monitors still know and report again.
				id := pickLive()
				if len(retracted) > 0 && rng.Intn(4) == 0 {
					id = retracted[rng.Intn(len(retracted))]
					reretracts++
				}
				if id != 0 && !violated {
					if !slices.Contains(interactive, id) && !slices.Contains(retracted, id) {
						retracted = append(retracted, id)
					}
					delete(live, id)
					ref.Retract(id)
					mon.Retract(id)
				}
			default:
				want := ref.Compact()
				if want > 0 {
					reclaims++
				}
				if got := mon.Compact(); got != want {
					t.Fatalf("trial %d: Monitor.Compact reclaimed %d, reference %d", trial, got, want)
				}
			}
			sameLifecycle(t, trial, mon, ref, monTape, refTape)
			if !violated {
				for e := range partition {
					if got, want := mon.ConflictEdges(e), ref.ConflictEdges(e); !slices.Equal(got, want) {
						t.Fatalf("trial %d: conjunct %d edges %v vs reference %v", trial, e, got, want)
					}
				}
			}
		}
		if violated {
			continue
		}
		// Commit whatever is still known — live, or rolled back and never
		// re-admitted — and reclaim: nothing may stay resident.
		known := slices.Concat(retracted, interactive)
		for id := range live {
			known = append(known, id)
		}
		slices.Sort(known)
		for _, id := range slices.Compact(known) {
			if id == 0 {
				continue // an idle interactive slot
			}
			ref.Commit(id)
			mon.Commit(id)
		}
		ref.Compact()
		mon.Compact()
		sameLifecycle(t, trial, mon, ref, monTape, refTape)
		if live := mon.LiveTxns(); live != 0 {
			t.Fatalf("trial %d: %d live after everything committed and compacted", trial, live)
		}
	}
	if accepts == 0 || stickyDenials == 0 || reclaims == 0 || readmits == 0 || reretracts == 0 {
		t.Fatalf("differential missed a regime: %d sequence accepts, %d sticky-verdict denials, %d reclaiming passes, %d re-admissions, %d repeated retractions",
			accepts, stickyDenials, reclaims, readmits, reretracts)
	}
	t.Logf("recycled slots handed out: %d", reusedSlots)
	if reusedSlots < 100 {
		t.Fatalf("recycling too thin: %d recycled slots handed out", reusedSlots)
	}
}

// TestFreshSequenceNeverDenied tests the theorem that lets AdmitSequence
// skip the probe: a fresh transaction's operations, observed in order,
// are each admissible when they arrive, whatever state the certifier is
// in. Random fresh sequences — new ids, and ids of aborted tick
// transactions admitted again — are probed operation by operation with
// Admissible, then observed, between steps of in-flight tick traffic:
// per-operation observations gated the way a certifying scheduler
// gates them (a denied requester is aborted, so the monitor stays
// healthy), retractions, commits and compaction passes. Every probe of
// a fresh sequence must pass. The test counts, for each
// regime, the sequences that met it — tick transactions in flight, a
// retraction, a commit, a reclaiming pass since the previous sequence,
// a re-admitted id, an edge drawn into the fresh transaction — and
// fails as vacuous unless each occurred.
func TestFreshSequenceNeverDenied(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	probes := 0
	var inFlight, afterRetract, afterCommit, afterPass, readmitted, edgesInto int
	for trial := 0; trial < 120; trial++ {
		items := make([]string, 2+rng.Intn(6))
		for i := range items {
			items[i] = fmt.Sprintf("x%d", i)
		}
		partition := randomPartition(rng, items, trial%3 == 0)
		if trial%2 == 1 {
			partition = make([]state.ItemSet, 8+rng.Intn(3))
			for e := range partition {
				partition[e] = state.NewItemSet()
			}
			for _, it := range items {
				partition[rng.Intn(len(partition))].Add(it)
			}
		}
		mon := core.NewMonitor(partition)
		mon.SetAutoCompact([]int{0, 3}[trial%2])
		randOp := func(id int) txn.Op {
			if rng.Intn(2) == 0 {
				return txn.R(id, items[rng.Intn(len(items))], 0)
			}
			return txn.W(id, items[rng.Intn(len(items))], 1)
		}
		observe := func(o txn.Op) {
			if v := mon.Observe(o); v != nil {
				t.Fatalf("trial %d: observing admissible %v violated: %v", trial, o, v)
			}
		}

		nextID := 1
		tick := make([]int, 3)         // in-flight tick transactions (0: idle slot)
		resident := make(map[int]bool) // tick transactions holding operations
		var aborted, uncommitted []int // aborted tick ids; sequences not yet committed
		retracted, committed, reclaimed := false, false, false
		for step := 0; step < 60; step++ {
			switch r := rng.Intn(100); {
			case r < 40:
				k := rng.Intn(len(tick))
				if tick[k] == 0 {
					tick[k] = nextID
					nextID++
				}
				o := randOp(tick[k])
				if mon.Admissible(o) {
					observe(o)
					resident[o.Txn] = true
					continue
				}
				// The scheduler aborts the denied requester.
				mon.Retract(o.Txn)
				delete(resident, o.Txn)
				aborted = append(aborted, o.Txn)
				tick[k] = 0
				retracted = true
			case r < 70:
				id := nextID
				readmit := len(aborted) > 0 && rng.Intn(3) == 0
				if readmit {
					id, aborted = aborted[0], aborted[1:]
					readmitted++
				} else {
					nextID++
				}
				if len(resident) > 0 {
					inFlight++
				}
				if retracted {
					afterRetract++
				}
				if committed {
					afterCommit++
				}
				if reclaimed {
					afterPass++
				}
				retracted, committed, reclaimed = false, false, false
				for n := 1 + rng.Intn(6); n > 0; n-- {
					o := randOp(id)
					probes++
					if !mon.Admissible(o) {
						t.Fatalf("trial %d: operation %v of fresh transaction T%d denied", trial, o, id)
					}
					observe(o)
				}
				for e := range partition {
					if slices.ContainsFunc(mon.ConflictEdges(e), func(edge [2]int) bool { return edge[1] == id }) {
						edgesInto++
						break
					}
				}
				uncommitted = append(uncommitted, id)
			case r < 85:
				// Commit a sequence or an in-flight tick transaction.
				if len(uncommitted) > 0 && rng.Intn(2) == 0 {
					id := uncommitted[0]
					uncommitted = uncommitted[1:]
					mon.Commit(id)
					committed = true
				} else if k := rng.Intn(len(tick)); tick[k] != 0 {
					id := tick[k]
					mon.Commit(id)
					delete(resident, id)
					tick[k] = 0
					committed = true
				}
			case r < 93:
				if k := rng.Intn(len(tick)); tick[k] != 0 {
					id := tick[k]
					mon.Retract(id)
					delete(resident, id)
					aborted = append(aborted, id)
					tick[k] = 0
					retracted = true
				}
			default:
				if mon.Compact() > 0 {
					reclaimed = true
				}
			}
		}
		if !mon.PWSR() {
			t.Fatalf("trial %d: a gated stream violated", trial)
		}
	}
	t.Logf("%d probes; sequences with tick transactions in flight %d, after a retraction %d, after a commit %d, after a reclaiming pass %d, re-admitted %d, drawing an edge into themselves %d",
		probes, inFlight, afterRetract, afterCommit, afterPass, readmitted, edgesInto)
	if inFlight == 0 || afterRetract == 0 || afterCommit == 0 || afterPass == 0 || readmitted == 0 || edgesInto == 0 {
		t.Fatal("a regime never occurred")
	}
}

// TestAdmitSequenceContract pins the lifecycle panics: mixed
// transactions, sequences for a committed transaction, and sequences
// for a transaction already holding observed operations are
// programming errors.
func TestAdmitSequenceContract(t *testing.T) {
	partition := []state.ItemSet{state.NewItemSet("a", "b")}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("mixed", func() {
		core.NewMonitor(partition).AdmitSequence([]txn.Op{txn.R(1, "a", 0), txn.W(2, "b", 1)})
	})
	mustPanic("committed", func() {
		m := core.NewMonitor(partition)
		m.Observe(txn.R(1, "a", 0))
		m.Commit(1)
		m.AdmitSequence([]txn.Op{txn.W(1, "b", 1)})
	})
	mustPanic("resident", func() {
		m := core.NewMonitor(partition)
		m.Observe(txn.R(1, "a", 0))
		m.AdmitSequence([]txn.Op{txn.W(1, "b", 1)})
	})
}
