package pwsr_test

import (
	"context"
	"testing"

	"pwsr"
)

// TestPublicAPIExample2 walks the paper's Example 2 through the public
// facade end to end.
func TestPublicAPIExample2(t *testing.T) {
	ic := pwsr.MustParseICFromConjuncts("a > 0 -> b > 0", "c > 0")
	schema := pwsr.UniformInts(-20, 20, "a", "b", "c")
	sys := pwsr.NewSystem(ic, schema)
	initial := pwsr.Ints(map[string]int64{"a": -1, "b": -1, "c": 1})

	s := pwsr.MustParseSchedule("w1(a, 1), r2(a, 1), r2(b, -1), w2(c, -1), r1(c, -1)")
	if !sys.CheckPWSR(s).PWSR {
		t.Fatal("Example 2 schedule should be PWSR")
	}
	if pwsr.IsCSR(s) {
		t.Fatal("Example 2 schedule should not be serializable")
	}
	rep, err := sys.CheckStrongCorrectness(s, initial)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StronglyCorrect {
		t.Fatal("Example 2 schedule should not be strongly correct")
	}
}

// TestPublicAPIConcurrentRun builds programs, runs them under a scripted
// policy, and analyzes the result.
func TestPublicAPIConcurrentRun(t *testing.T) {
	tp1 := pwsr.MustParseProgram(`program TP1 {
		a := 1;
		if (c > 0) { b := abs(b) + 1; }
	}`)
	tp2 := pwsr.MustParseProgram(`program TP2 {
		if (a > 0) { c := b; }
	}`)
	res, err := pwsr.Run(context.Background(), pwsr.RunConfig{
		Programs: map[int]*pwsr.Program{1: tp1, 2: tp2},
		Initial:  pwsr.Ints(map[string]int64{"a": -1, "b": -1, "c": 1}),
		Policy:   pwsr.NewScript(1, 2, 2, 2, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Ops().String() != "w1(a, 1), r2(a, 1), r2(b, -1), w2(c, -1), r1(c, -1)" {
		t.Fatalf("schedule = %s", res.Schedule)
	}

	ic := pwsr.MustParseICFromConjuncts("a > 0 -> b > 0", "c > 0")
	sys := pwsr.NewSystem(ic, pwsr.UniformInts(-20, 20, "a", "b", "c"))
	v, err := sys.Analyze(res.Schedule, pwsr.AnalyzeOptions{
		Programs: map[int]*pwsr.Program{1: tp1, 2: tp2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Guaranteed {
		t.Fatal("no theorem should guarantee Example 2's schedule")
	}
	if !v.PWSR || v.FixedStructure {
		t.Fatalf("verdict = %+v", v)
	}
}

// TestPublicAPIParallelRun drives the block-parallel batch engine
// through the facade: a certified parallel run must land exactly the
// serial ascending-id result, whatever the worker count.
func TestPublicAPIParallelRun(t *testing.T) {
	programs := make(map[int]*pwsr.Program, 6)
	initial := pwsr.Ints(map[string]int64{
		"x1": 0, "x2": 0, "x3": 0, "x4": 0, "x5": 0, "x6": 0, "h": 0,
	})
	for i := 1; i <= 6; i++ {
		programs[i] = pwsr.MustParseProgram(
			"program T" + string(rune('0'+i)) + " {\n" +
				"  x" + string(rune('0'+i)) + " := x" + string(rune('0'+i)) + " + 1;\n" +
				"  h := h + 1;\n}")
	}
	partition := []pwsr.ItemSet{
		pwsr.NewItemSet("x1", "x2", "x3", "x4", "x5", "x6"),
		pwsr.NewItemSet("h"),
	}
	mkGate := func() pwsr.BatchGate {
		gate, ok := pwsr.AsBatchGate(pwsr.NewOptimisticCertify(partition, pwsr.NewSerialPolicy(), nil))
		if !ok {
			t.Fatal("NewOptimisticCertify must be usable as a batch gate")
		}
		return gate
	}
	want, err := pwsr.RunParallel(context.Background(), pwsr.ParallelRunConfig{
		Initial: initial, Gate: mkGate(), Workers: 1,
	}, programs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pwsr.RunParallel(context.Background(), pwsr.ParallelRunConfig{
		Initial: initial, Gate: mkGate(), Workers: 4,
	}, programs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.String() != want.Schedule.String() {
		t.Fatalf("parallel schedule diverged:\n%s\nvs\n%s", res.Schedule, want.Schedule)
	}
	if !res.Final.Equal(want.Final) {
		t.Fatal("parallel final state diverged from the 1-worker run")
	}
	if v, ok := res.Final.Get("h"); !ok || v.AsInt() != 6 {
		t.Fatalf("h = %v, want 6", v)
	}
}

// TestPublicAPIBalanceRepair repairs the Example 2 program and shows the
// violating grant order no longer yields a PWSR-and-incorrect schedule.
func TestPublicAPIBalanceRepair(t *testing.T) {
	tp1 := pwsr.MustParseProgram(`program TP1 {
		a := 1;
		if (c > 0) { b := abs(b) + 1; }
	}`)
	fixed, err := pwsr.Balance(tp1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pwsr.CheckFixedStructure(fixed, pwsr.UniformInts(-3, 3, "a", "b", "c"), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fixed {
		t.Fatal("balanced program should be fixed-structure")
	}
}

// TestPublicAPILockingPolicies exercises C2PL and PW2PL through the
// facade.
func TestPublicAPILockingPolicies(t *testing.T) {
	long := pwsr.MustParseProgram(`program Long {
		x := x + 1;
		m := m + 1;
		y := y + 1;
	}`)
	short := pwsr.MustParseProgram(`program Short {
		x := x + 2;
		y := y + 2;
	}`)
	sets := []pwsr.ItemSet{pwsr.NewItemSet("x"), pwsr.NewItemSet("m"), pwsr.NewItemSet("y")}
	run := func(policy pwsr.Policy) *pwsr.RunResult {
		res, err := pwsr.Run(context.Background(), pwsr.RunConfig{
			Programs: map[int]*pwsr.Program{1: long, 2: short},
			Initial:  pwsr.Ints(map[string]int64{"x": 0, "m": 0, "y": 0}),
			Policy:   policy,
			DataSets: sets,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Locking and serial policies must apply both increments.
	for _, policy := range []pwsr.Policy{pwsr.NewC2PL(), pwsr.NewPW2PL(), pwsr.NewSerialPolicy()} {
		if got := run(policy).Final.MustGet("x"); got != pwsr.Int(3) {
			t.Fatalf("x = %v, want 3", got)
		}
	}
	// Unlocked policies run but may lose updates; they still record
	// valid schedules.
	for _, policy := range []pwsr.Policy{pwsr.NewRoundRobin(), pwsr.NewRandom(1)} {
		res := run(policy)
		if err := res.Schedule.ValidateOrderEmbedding(); err != nil {
			t.Fatal(err)
		}
	}
	// Certification gates: per-conjunct serializability forbids the lost
	// update on x, so both increments must land — the optimistic gate by
	// aborting a victim where the blocking gate would stall.
	for _, victim := range []pwsr.VictimPolicy{nil, pwsr.VictimYoungest, pwsr.VictimFewestOps} {
		res := run(pwsr.NewOptimisticCertify(sets, pwsr.NewRandom(7), victim))
		if got := res.Final.MustGet("x"); got != pwsr.Int(3) {
			t.Fatalf("optimistic certify: x = %v, want 3", got)
		}
		if !pwsr.CheckPWSR(res.Schedule, sets).PWSR {
			t.Fatal("optimistic certify: schedule not PWSR")
		}
	}
}

// TestPublicAPINotationHelpers exercises view sets and transaction
// states through the facade.
func TestPublicAPINotationHelpers(t *testing.T) {
	s := pwsr.NewSchedule(
		pwsr.R(2, "a", 0),
		pwsr.R(1, "a", 0),
		pwsr.W(2, "d", 0),
		pwsr.R(1, "c", 5),
		pwsr.W(1, "b", 5),
	)
	d := pwsr.NewItemSet("a", "b", "c")
	initial := pwsr.Ints(map[string]int64{"a": 0, "b": 10, "c": 5, "d": 10})
	st := pwsr.TxnState(s, d, []int{1, 2}, 1, initial)
	if !st.Equal(pwsr.Ints(map[string]int64{"a": 0, "b": 5, "c": 5})) {
		t.Fatalf("state = %v", st)
	}
	p := s.Op(2)
	vs := pwsr.ViewSet(s, d, []int{1, 2}, 1, p)
	if !vs.Equal(pwsr.NewItemSet("a", "c")) { // b written by T1 after p
		t.Fatalf("VS = %v", vs)
	}
	vsdr := pwsr.ViewSetDR(s, d, []int{2, 1}, 1, p)
	if vsdr.Empty() {
		t.Fatalf("VS_DR = %v", vsdr)
	}
}
