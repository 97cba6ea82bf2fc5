package sched_test

import (
	"context"
	"fmt"
	"testing"

	"pwsr/internal/exec"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/serial"
	"pwsr/internal/state"
)

// incProgram builds "x := x + k" chains over the given items.
func incProgram(name string, k int64, items ...string) *program.Program {
	src := "program " + name + " {\n"
	for _, it := range items {
		src += fmt.Sprintf("%s := %s + %d;\n", it, it, k)
	}
	src += "}"
	return program.MustParse(src)
}

func TestC2PLSerializable(t *testing.T) {
	// All transactions conflict on shared items; C2PL must still give a
	// serializable (indeed serial-equivalent) schedule.
	programs := map[int]*program.Program{
		1: incProgram("A", 1, "x", "y"),
		2: incProgram("B", 10, "y", "z"),
		3: incProgram("C", 100, "z", "x"),
	}
	res, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: programs,
		Initial:  state.Ints(map[string]int64{"x": 0, "y": 0, "z": 0}),
		Policy:   sched.NewC2PL(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.IsCSR(res.Schedule) {
		t.Fatalf("C2PL produced non-serializable schedule: %s", res.Schedule)
	}
	// Every increment applied exactly once.
	want := state.Ints(map[string]int64{"x": 101, "y": 11, "z": 110})
	if !res.Final.Equal(want) {
		t.Fatalf("final = %v, want %v", res.Final, want)
	}
}

func TestC2PLManyTransactions(t *testing.T) {
	programs := map[int]*program.Program{}
	for i := 1; i <= 8; i++ {
		programs[i] = incProgram(fmt.Sprintf("T%d", i), 1, "x")
	}
	res, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: programs,
		Initial:  state.Ints(map[string]int64{"x": 0}),
		Policy:   sched.NewC2PL(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.IsCSR(res.Schedule) {
		t.Fatal("not serializable")
	}
	if res.Final.MustGet("x") != state.Int(8) {
		t.Fatalf("x = %v, want 8 (no lost updates)", res.Final.MustGet("x"))
	}
}

// pwWorkload builds the overtaking scenario: T1 works through data sets
// d0 = {x}, d1 = {m1..mk}, d2 = {y}; T2 touches only x and y. With
// per-set release, T2 overtakes T1 on d2 while T1 is busy in d1,
// creating a global conflict cycle that each per-set projection lacks.
func pwWorkload(k int) (map[int]*program.Program, state.DB, []state.ItemSet) {
	mids := make([]string, k)
	for i := range mids {
		mids[i] = fmt.Sprintf("m%d", i+1)
	}
	t1Items := append(append([]string{"x"}, mids...), "y")
	programs := map[int]*program.Program{
		1: incProgram("Long", 1, t1Items...),
		2: incProgram("Short", 2, "x", "y"),
	}
	initial := state.NewDB()
	for _, it := range t1Items {
		initial.Set(it, state.Int(0))
	}
	sets := []state.ItemSet{
		state.NewItemSet("x"),
		state.NewItemSet(mids...),
		state.NewItemSet("y"),
	}
	return programs, initial, sets
}

func TestPW2PLProducesPWSRNotSerializable(t *testing.T) {
	programs, initial, sets := pwWorkload(6)
	res, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: programs,
		Initial:  initial,
		Policy:   sched.NewPW2PL(),
		DataSets: sets,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each per-set projection is serializable: PWSR.
	for i, d := range sets {
		if !serial.IsCSR(res.Schedule.Restrict(d)) {
			t.Fatalf("projection %d not serializable: %s", i, res.Schedule.Restrict(d))
		}
	}
	// The global schedule is NOT serializable: T1 before T2 on x, T2
	// before T1 on y.
	if serial.IsCSR(res.Schedule) {
		t.Fatalf("expected a nonserializable PWSR schedule, got %s", res.Schedule)
	}
	// Updates are still applied exactly once per item.
	if res.Final.MustGet("x") != state.Int(3) || res.Final.MustGet("y") != state.Int(3) {
		t.Fatalf("final = %v", res.Final)
	}
}

func TestPW2PLLowerWaitThanC2PL(t *testing.T) {
	// The concurrency claim in miniature: predicate-wise locking makes
	// the short transaction wait less than full conservative 2PL.
	run := func(policy exec.Policy) exec.Metrics {
		programs, initial, sets := pwWorkload(8)
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: programs,
			Initial:  initial,
			Policy:   policy,
			DataSets: sets,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	pw := run(sched.NewPW2PL())
	c := run(sched.NewC2PL())
	// The short transaction both completes earlier and spends fewer
	// ticks blocked under predicate-wise locking.
	if pw.PerTxn[2].End >= c.PerTxn[2].End {
		t.Fatalf("short txn completion: PW2PL %d, C2PL %d — expected PW2PL earlier",
			pw.PerTxn[2].End, c.PerTxn[2].End)
	}
	if pw.PerTxn[2].Waits >= c.PerTxn[2].Waits {
		t.Fatalf("short txn waits: PW2PL %d, C2PL %d — expected PW2PL fewer",
			pw.PerTxn[2].Waits, c.PerTxn[2].Waits)
	}
}

func TestDelayedReadGateProducesDR(t *testing.T) {
	// Under random interleaving, writer/reader pairs produce non-DR
	// schedules for some seed; the DR gate must prevent all of them.
	programs := map[int]*program.Program{
		1: program.MustParse(`program W { x := 1; y := 2; }`),
		2: program.MustParse(`program R { z := x; }`),
	}
	initial := state.Ints(map[string]int64{"x": 0, "y": 0, "z": 0})

	sawNonDR := false
	for seed := int64(0); seed < 20; seed++ {
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: programs,
			Initial:  initial,
			Policy:   sched.NewRandom(seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Schedule.IsDelayedRead() {
			sawNonDR = true
		}
	}
	if !sawNonDR {
		t.Fatal("random policy never produced a non-DR schedule; gate test is vacuous")
	}

	for seed := int64(0); seed < 20; seed++ {
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: programs,
			Initial:  initial,
			Policy:   &sched.DelayedRead{Inner: sched.NewRandom(seed)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Schedule.IsDelayedRead() {
			t.Fatalf("seed %d: gate produced non-DR schedule %s", seed, res.Schedule)
		}
	}
}

func TestScriptPolicyExhaustedStalls(t *testing.T) {
	programs := map[int]*program.Program{
		1: program.MustParse(`program A { x := 1; y := 1; }`),
	}
	_, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: programs,
		Initial:  state.Ints(map[string]int64{"x": 0, "y": 0}),
		Policy:   sched.NewScript(1), // too short
	})
	if err == nil {
		t.Fatal("exhausted script accepted")
	}
}

func TestC2PLSchedulesAreDR(t *testing.T) {
	// Strict 2PL schedules avoid cascading aborts (ACA), hence are DR.
	programs := map[int]*program.Program{
		1: incProgram("A", 1, "x", "y"),
		2: incProgram("B", 1, "y", "x"),
		3: incProgram("C", 1, "x"),
	}
	res, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: programs,
		Initial:  state.Ints(map[string]int64{"x": 0, "y": 0}),
		Policy:   sched.NewC2PL(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedule.IsDelayedRead() {
		t.Fatalf("C2PL schedule not DR: %s", res.Schedule)
	}
}
