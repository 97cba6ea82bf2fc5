package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/serial"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// randomSchedule builds a raw random schedule over txns transactions
// and the given items (no access discipline — the monitor must cope
// with arbitrary operation streams).
func randomSchedule(rng *rand.Rand, nops, txns int, items []string) *txn.Schedule {
	ops := make([]txn.Op, nops)
	for i := range ops {
		id := 1 + rng.Intn(txns)
		entity := items[rng.Intn(len(items))]
		if rng.Intn(2) == 0 {
			ops[i] = txn.R(id, entity, int64(rng.Intn(8)))
		} else {
			ops[i] = txn.W(id, entity, int64(rng.Intn(8)))
		}
	}
	return txn.NewSchedule(ops...)
}

// randomPartition splits items into 1–3 conjunct data sets. Some items
// may be left out of every conjunct, and with overlap the sets are not
// disjoint — both shapes the monitor must handle.
func randomPartition(rng *rand.Rand, items []string, overlap bool) []state.ItemSet {
	l := 1 + rng.Intn(3)
	partition := make([]state.ItemSet, l)
	for e := range partition {
		partition[e] = state.NewItemSet()
	}
	for _, it := range items {
		switch {
		case rng.Intn(6) == 0: // unconstrained item
		case overlap && rng.Intn(3) == 0:
			partition[rng.Intn(l)].Add(it)
			partition[rng.Intn(l)].Add(it)
		default:
			partition[rng.Intn(l)].Add(it)
		}
	}
	return partition
}

// validCycle checks a reported violation cycle against the projection's
// full conflict graph (built by the reference pairwise construction):
// first == last, length ≥ 3, and every consecutive pair is a real
// conflict edge of the prefix that ends at the flagged operation.
func validCycle(t *testing.T, s *txn.Schedule, d state.ItemSet, upto int, cycle []int) {
	t.Helper()
	if len(cycle) < 3 || cycle[0] != cycle[len(cycle)-1] {
		t.Fatalf("malformed cycle %v", cycle)
	}
	prefix := txn.FromSeq(s.Ops()[:upto])
	g := serial.BuildGraphPairwise(prefix.Restrict(d))
	for i := 0; i+1 < len(cycle); i++ {
		if !g.HasEdge(cycle[i], cycle[i+1]) {
			t.Fatalf("cycle %v: %d -> %d is not a conflict edge of the projection", cycle, cycle[i], cycle[i+1])
		}
	}
}

// TestMonitorDifferential is the refactor's safety net: on random
// schedules the optimized Monitor must agree operation-for-operation
// with the pre-refactor ReferenceMonitor (same verdict, same flagged
// operation) and with the batch CheckPWSR semantics (violation ⇔ some
// projection not conflict serializable), and any reported cycle must be
// a genuine conflict cycle of the flagged conjunct's projection.
func TestMonitorDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	violations := 0
	for trial := 0; trial < 300; trial++ {
		nItems := 1 + rng.Intn(6)
		items := make([]string, nItems)
		for i := range items {
			items[i] = fmt.Sprintf("x%d", i)
		}
		s := randomSchedule(rng, 10+rng.Intn(70), 2+rng.Intn(5), items)
		partition := randomPartition(rng, items, trial%3 == 0)

		opt := core.NewMonitor(partition)
		ref := core.NewReferenceMonitor(partition)
		vOpt := opt.ObserveAll(s)
		vRef := ref.ObserveAll(s)

		if (vOpt == nil) != (vRef == nil) {
			t.Fatalf("trial %d: optimized %v vs reference %v on %s", trial, vOpt, vRef, s)
		}
		batch := core.CheckPWSR(s, partition)
		if batch.PWSR != (vOpt == nil) {
			t.Fatalf("trial %d: monitor %v vs batch %v", trial, vOpt, batch.PWSR)
		}
		// CheckPWSR's per-conjunct goroutines, forced on, agree too.
		old := core.SetCheckParallelThreshold(1)
		fanned := core.CheckPWSR(s, partition).PWSR
		core.SetCheckParallelThreshold(old)
		if fanned != batch.PWSR {
			t.Fatalf("trial %d: parallel batch %v vs sequential batch %v", trial, fanned, batch.PWSR)
		}
		if vOpt == nil {
			continue
		}
		violations++
		if opt.Ops() != ref.Ops() {
			t.Fatalf("trial %d: flagged op %d (optimized) vs %d (reference)", trial, opt.Ops(), ref.Ops())
		}
		if vOpt.Conjunct != vRef.Conjunct {
			t.Fatalf("trial %d: conjunct %d vs %d", trial, vOpt.Conjunct, vRef.Conjunct)
		}
		// The pre-violation prefix must be PWSR, the flagged prefix not
		// (acyclic ⇔ no violation, at the earliest possible op).
		prefix := txn.FromSeq(s.Ops()[:opt.Ops()-1])
		if !core.CheckPWSR(prefix, partition).PWSR {
			t.Fatalf("trial %d: flagged op was not the earliest violation", trial)
		}
		upto := txn.FromSeq(s.Ops()[:opt.Ops()])
		if core.CheckPWSR(upto, partition).PWSR {
			t.Fatalf("trial %d: flagged prefix still PWSR", trial)
		}
		validCycle(t, s, partition[vOpt.Conjunct], opt.Ops(), vOpt.Cycle)
	}
	if violations == 0 {
		t.Fatal("vacuous: no violations generated")
	}
}

// TestObserveAllStopsAtViolation: a whole-schedule feed stops at the
// violating operation, so the monitor ends exactly as an op-at-a-time
// Observe feed leaves it — no operation past the violation counted, no
// transaction whose operations all come after it resident. The
// 8192-operation schedule violates at its fourth operation:
// r1(x) w2(x) r2(y) w1(y), then thousands of single-write transactions
// on z.
func TestObserveAllStopsAtViolation(t *testing.T) {
	partition := []state.ItemSet{state.NewItemSet("x", "y"), state.NewItemSet("z")}
	ops := []txn.Op{txn.R(1, "x", 0), txn.W(2, "x", 1), txn.R(2, "y", 0), txn.W(1, "y", 1)}
	for id := 3; len(ops) < 8192; id++ {
		ops = append(ops, txn.W(id, "z", int64(id)))
	}
	s := txn.NewSchedule(ops...)
	whole, feed := core.NewMonitor(partition), core.NewMonitor(partition)
	v := whole.ObserveAll(s)
	var want *core.Violation
	for _, o := range s.Ops() {
		if want = feed.Observe(o); want != nil {
			break
		}
	}
	if v == nil || want == nil || v.Op != want.Op || v.Op != s.Op(3) {
		t.Fatalf("ObserveAll flagged %v, op-at-a-time %v, want %v", v, want, s.Op(3))
	}
	if got, want := whole.Ops(), feed.Ops(); got != want {
		t.Errorf("Ops %d, op-at-a-time %d", got, want)
	}
	if got, want := whole.LiveTxns(), feed.LiveTxns(); got != want {
		t.Errorf("LiveTxns %d, op-at-a-time %d", got, want)
	}
	if got, want := whole.LiveTxnIDs(), feed.LiveTxnIDs(); !slices.Equal(got, want) || !slices.Equal(got, []int{1, 2}) {
		t.Errorf("%d LiveTxnIDs starting %v, op-at-a-time %v, want [1 2]", len(got), got[:min(len(got), 2)], want)
	}
	if got, want := whole.InFlightTxnIDs(), feed.InFlightTxnIDs(); !slices.Equal(got, want) {
		t.Errorf("%d InFlightTxnIDs, op-at-a-time %v", len(got), want)
	}
	if got, want := whole.CompactStats(), feed.CompactStats(); got != want {
		t.Errorf("CompactStats %+v, op-at-a-time %+v", got, want)
	}
}

// TestAdmissiblePredictsObserve checks the non-mutating preflight: on
// every prefix, Admissible must say yes exactly when Observe then
// succeeds, and probing must not change the monitor's later verdicts.
func TestAdmissiblePredictsObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	denied := 0
	for trial := 0; trial < 150; trial++ {
		nItems := 1 + rng.Intn(4)
		items := make([]string, nItems)
		for i := range items {
			items[i] = fmt.Sprintf("x%d", i)
		}
		s := randomSchedule(rng, 10+rng.Intn(50), 2+rng.Intn(4), items)
		partition := randomPartition(rng, items, false)

		m := core.NewMonitor(partition)
		shadow := core.NewReferenceMonitor(partition)
		for _, o := range s.Ops() {
			// Probe twice: Admissible must be idempotent and must not
			// perturb the graphs.
			a1 := m.Admissible(o)
			a2 := m.Admissible(o)
			if a1 != a2 {
				t.Fatalf("trial %d: Admissible not idempotent at %s", trial, o)
			}
			v := m.Observe(o)
			if a1 != (v == nil) {
				t.Fatalf("trial %d: Admissible=%v but Observe=%v at %s", trial, a1, v, o)
			}
			if vr := shadow.Observe(o); (v == nil) != (vr == nil) {
				t.Fatalf("trial %d: probed monitor diverged from reference at %s", trial, o)
			}
			if v != nil {
				denied++
				break
			}
		}
	}
	if denied == 0 {
		t.Fatal("vacuous: no denials generated")
	}
}
