package core_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/paper"
	"pwsr/internal/sched"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

func TestMonitorAcceptsExample2(t *testing.T) {
	// Example 2's schedule IS PWSR: the monitor must admit every op.
	e := paper.Example2()
	m := core.NewMonitor(e.IC.Partition())
	if v := m.ObserveAll(e.Schedule); v != nil {
		t.Fatalf("violation on a PWSR schedule: %v", v)
	}
	if !m.PWSR() || m.Violation() != nil {
		t.Fatal("monitor state inconsistent")
	}
	if m.Ops() != e.Schedule.Len() {
		t.Fatalf("Ops = %d", m.Ops())
	}
}

func TestMonitorFlagsLostUpdate(t *testing.T) {
	m := core.NewMonitor([]state.ItemSet{state.NewItemSet("a")})
	ops := []txn.Op{
		txn.R(1, "a", 0),
		txn.R(2, "a", 0),
		txn.W(1, "a", 1), // edge T2 → T1 (r2 before w1), and T1 → ... none yet
		txn.W(2, "a", 2), // edges T1 → T2: closes the cycle
	}
	var v *core.Violation
	for i, o := range ops {
		v = m.Observe(o)
		if v != nil {
			if i != 3 {
				t.Fatalf("violation at op %d, want 3", i)
			}
			break
		}
	}
	if v == nil {
		t.Fatal("lost update not flagged")
	}
	if v.Conjunct != 0 || len(v.Cycle) < 3 {
		t.Fatalf("violation = %+v", v)
	}
	if !strings.Contains(v.Error(), "cycle") {
		t.Fatalf("Error = %q", v.Error())
	}
	// Sticky after the first violation.
	if again := m.Observe(txn.R(3, "a", 2)); again != v {
		t.Fatal("violation not sticky")
	}
	if m.PWSR() {
		t.Fatal("PWSR should be false")
	}
}

func TestMonitorIgnoresUnconstrainedItems(t *testing.T) {
	m := core.NewMonitor([]state.ItemSet{state.NewItemSet("a")})
	// A raging cycle on z, which belongs to no conjunct.
	for _, o := range []txn.Op{
		txn.R(1, "z", 0), txn.R(2, "z", 0), txn.W(1, "z", 1), txn.W(2, "z", 2),
	} {
		if v := m.Observe(o); v != nil {
			t.Fatalf("violation on unconstrained item: %v", v)
		}
	}
}

func TestMonitorAgreesWithBatchChecker(t *testing.T) {
	// On random executions the online monitor and the batch CheckPWSR
	// must agree, and the monitor must flag the violation at the
	// earliest non-PWSR prefix.
	rng := rand.New(rand.NewSource(31))
	agreeChecked, violationChecked := 0, 0
	for trial := 0; trial < 60; trial++ {
		w := gen.MustGenerate(gen.Config{
			Conjuncts: 2, Programs: 3, Style: gen.StyleFixed, Seed: rng.Int63(),
		})
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: w.Programs,
			Initial:  w.Initial,
			Policy:   sched.NewRandom(rng.Int63()),
		})
		if err != nil {
			t.Fatal(err)
		}
		batch := core.CheckPWSR(res.Schedule, w.DataSets).PWSR
		m := core.NewMonitor(w.DataSets)
		v := m.ObserveAll(res.Schedule)
		if (v == nil) != batch {
			t.Fatalf("trial %d: monitor %v vs batch %v on %s", trial, v, batch, res.Schedule)
		}
		agreeChecked++
		if v != nil {
			violationChecked++
			// The prefix up to (excluding) the flagged op must be PWSR.
			prefix := txn.FromSeq(res.Schedule.Ops()[:m.Ops()-1])
			if !core.CheckPWSR(prefix, w.DataSets).PWSR {
				t.Fatalf("trial %d: flagged op was not the earliest violation", trial)
			}
			// Including it, not PWSR.
			upto := txn.FromSeq(res.Schedule.Ops()[:m.Ops()])
			if core.CheckPWSR(upto, w.DataSets).PWSR {
				t.Fatalf("trial %d: flagged prefix is still PWSR", trial)
			}
		}
	}
	if agreeChecked == 0 || violationChecked == 0 {
		t.Fatalf("vacuous: %d trials, %d violations", agreeChecked, violationChecked)
	}
}

func TestMonitorSingleTxnSelfConflictSuppressed(t *testing.T) {
	// One transaction hammering the same items never conflicts with
	// itself: no edges, no violation, however the accesses interleave.
	m := core.NewMonitor([]state.ItemSet{state.NewItemSet("a", "b")})
	for i := 0; i < 50; i++ {
		ops := []txn.Op{
			txn.R(7, "a", 0), txn.W(7, "a", 1), txn.R(7, "b", 0),
			txn.W(7, "b", 1), txn.W(7, "a", 2), txn.R(7, "a", 2),
		}
		if v := m.Observe(ops[i%len(ops)]); v != nil {
			t.Fatalf("self-conflict flagged: %v", v)
		}
	}
	if !m.PWSR() {
		t.Fatal("PWSR should hold")
	}
}

func TestMonitorRepeatedViolationsAfterFirst(t *testing.T) {
	// After the first violation the monitor stays pinned to it even
	// when later operations would close new, different cycles, and the
	// operation counter keeps counting.
	m := core.NewMonitor([]state.ItemSet{state.NewItemSet("a", "b")})
	first := []txn.Op{
		txn.R(1, "a", 0), txn.R(2, "a", 0), txn.W(1, "a", 1), txn.W(2, "a", 2),
	}
	var v *core.Violation
	for _, o := range first {
		v = m.Observe(o)
	}
	if v == nil {
		t.Fatal("no violation on lost update")
	}
	// A second independent lost-update cycle on b between T3 and T4.
	second := []txn.Op{
		txn.R(3, "b", 0), txn.R(4, "b", 0), txn.W(3, "b", 1), txn.W(4, "b", 2),
	}
	for _, o := range second {
		if got := m.Observe(o); got != v {
			t.Fatalf("violation not sticky across later cycles: %v", got)
		}
	}
	if m.Ops() != len(first)+len(second) {
		t.Fatalf("Ops = %d, want %d", m.Ops(), len(first)+len(second))
	}
	if m.Violation() != v || m.PWSR() {
		t.Fatal("monitor state inconsistent after repeated violations")
	}
}

func TestMonitorMixedConstrainedAndOutsideItems(t *testing.T) {
	// Conflicts routed through unconstrained items must not contribute
	// edges: the same interleaving violates on a constrained item but
	// not when the cycle runs through z.
	m := core.NewMonitor([]state.ItemSet{state.NewItemSet("a")})
	ops := []txn.Op{
		txn.R(1, "z", 0), txn.R(2, "z", 0), txn.W(1, "z", 1), txn.W(2, "z", 2), // cycle on z: ignored
		txn.W(1, "a", 1), txn.R(2, "a", 1), // a: T1 → T2 only
	}
	for _, o := range ops {
		if v := m.Observe(o); v != nil {
			t.Fatalf("violation through unconstrained item: %v", v)
		}
	}
	// Now close a real cycle on a: T2 → T1 needs w1(a) after r2(a).
	if v := m.Observe(txn.W(2, "a", 2)); v != nil {
		t.Fatalf("T1→T2 edge repeated should not violate: %v", v)
	}
	if v := m.Observe(txn.W(1, "a", 3)); v == nil {
		t.Fatal("cycle on constrained item not flagged")
	}
}

func TestMonitorOverlappingConjuncts(t *testing.T) {
	// Non-disjoint conjuncts: b belongs to both. A cycle on b violates
	// both projections; the monitor must report the lowest conjunct
	// index, mirroring the sequential definition.
	m := core.NewMonitor([]state.ItemSet{
		state.NewItemSet("a", "b"),
		state.NewItemSet("b", "c"),
	})
	ops := []txn.Op{
		txn.R(1, "b", 0), txn.R(2, "b", 0), txn.W(1, "b", 1),
	}
	for _, o := range ops {
		if v := m.Observe(o); v != nil {
			t.Fatalf("premature violation: %v", v)
		}
	}
	v := m.Observe(txn.W(2, "b", 2))
	if v == nil {
		t.Fatal("cycle on shared item not flagged")
	}
	if v.Conjunct != 0 {
		t.Fatalf("Conjunct = %d, want 0 (lowest index wins)", v.Conjunct)
	}

	// A cycle confined to c is charged to conjunct 1 only.
	m2 := core.NewMonitor([]state.ItemSet{
		state.NewItemSet("a", "b"),
		state.NewItemSet("b", "c"),
	})
	for _, o := range []txn.Op{
		txn.R(1, "c", 0), txn.R(2, "c", 0), txn.W(1, "c", 1),
	} {
		if v := m2.Observe(o); v != nil {
			t.Fatalf("premature violation: %v", v)
		}
	}
	v2 := m2.Observe(txn.W(2, "c", 2))
	if v2 == nil || v2.Conjunct != 1 {
		t.Fatalf("violation = %+v, want conjunct 1", v2)
	}
}

func TestSystemNewMonitor(t *testing.T) {
	e := paper.Example2()
	sys := core.NewSystem(e.IC, e.Schema)
	m := sys.NewMonitor()
	if v := m.ObserveAll(e.Schedule); v != nil {
		t.Fatal(v)
	}
}
