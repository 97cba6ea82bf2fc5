package saga

import (
	"context"
	"strings"
	"testing"

	"pwsr/internal/constraint"
	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/serial"
	"pwsr/internal/state"
)

func partition2() []state.ItemSet {
	return []state.ItemSet{
		state.NewItemSet("a1", "a2"),
		state.NewItemSet("b1", "b2"),
	}
}

func TestDecomposeTwoSets(t *testing.T) {
	p := program.MustParse(`program T {
		a1 := a1 - 1;
		a2 := a2 + 1;
		b1 := b1 - 2;
		b2 := b2 + 2;
	}`)
	sg, err := Decompose(p, partition2())
	if err != nil {
		t.Fatal(err)
	}
	if len(sg.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(sg.Steps))
	}
	if sg.Steps[0].Set != 0 || sg.Steps[1].Set != 1 {
		t.Fatalf("sets = %d, %d", sg.Steps[0].Set, sg.Steps[1].Set)
	}
	if len(sg.Steps[0].Program.Body) != 2 || len(sg.Steps[1].Program.Body) != 2 {
		t.Fatalf("step sizes wrong: %v", sg.Steps)
	}
}

func TestDecomposeInterleavedSetsSplitOnBoundary(t *testing.T) {
	// a-set, b-set, a-set again: three steps.
	p := program.MustParse(`program T {
		a1 := a1 + 1;
		b1 := b1 + 1;
		a2 := a2 + 1;
	}`)
	sg, err := Decompose(p, partition2())
	if err != nil {
		t.Fatal(err)
	}
	if len(sg.Steps) != 3 {
		t.Fatalf("steps = %d, want 3", len(sg.Steps))
	}
}

func TestDecomposeLocalsWithinSet(t *testing.T) {
	p := program.MustParse(`program T {
		let x := a1;
		a2 := x + 1;
	}`)
	sg, err := Decompose(p, partition2())
	if err != nil {
		t.Fatal(err)
	}
	if len(sg.Steps) != 1 || sg.Steps[0].Set != 0 {
		t.Fatalf("steps = %+v", sg.Steps)
	}
}

func TestDecomposeRejectsCrossSetFlow(t *testing.T) {
	for _, src := range []string{
		`program T { b1 := a1; }`,             // direct cross-set assignment
		`program T { let x := a1; b1 := x; }`, // cross-set via local
		`program T { a1 := a1 + b1; }`,        // mixed expression
	} {
		p := program.MustParse(src)
		if _, err := Decompose(p, partition2()); err == nil {
			t.Errorf("Decompose(%s) succeeded, want cross-set error", src)
		}
	}
}

func TestDecomposeRejectsControlFlow(t *testing.T) {
	p := program.MustParse(`program T { if (a1 > 0) { a2 := 1; } }`)
	if _, err := Decompose(p, partition2()); err == nil {
		t.Fatal("non-straight-line program accepted")
	}
}

func TestSagaExecutionIsPWSRAndCorrect(t *testing.T) {
	// Two sagas, each transferring within both sets. Steps run as
	// independent transactions under conservative step-level 2PL:
	// the schedule is serializable at STEP granularity, which makes the
	// saga-level schedule PWSR over the partition — and consistency is
	// preserved because every step preserves its own conjunct.
	ic, err := constraint.ParseICFromConjuncts("a1 + a2 = 10", "b1 + b2 = 10")
	if err != nil {
		t.Fatal(err)
	}
	schema := state.UniformInts(-64, 64, "a1", "a2", "b1", "b2")
	sys := core.NewSystem(ic, schema)
	initial := state.Ints(map[string]int64{"a1": 4, "a2": 6, "b1": 7, "b2": 3})

	saga1, err := Decompose(program.MustParse(`program S1 {
		a1 := a1 - 1;
		a2 := a2 + 1;
		b1 := b1 - 2;
		b2 := b2 + 2;
	}`), ic.Partition())
	if err != nil {
		t.Fatal(err)
	}
	saga2, err := Decompose(program.MustParse(`program S2 {
		a1 := a1 + 3;
		a2 := a2 - 3;
		b1 := b1 + 1;
		b2 := b2 - 1;
	}`), ic.Partition())
	if err != nil {
		t.Fatal(err)
	}

	programs, ids := Flatten([]*Saga{saga1, saga2})
	if len(programs) != 4 || len(ids) != 2 {
		t.Fatalf("flatten: %d programs, %d sagas", len(programs), len(ids))
	}

	for seed := int64(0); seed < 10; seed++ {
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: programs,
			Initial:  initial,
			Policy:   sched.NewC2PL(), // step-granularity locking
			DataSets: ic.Partition(),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Serializable at step granularity…
		if !serial.IsCSR(res.Schedule) {
			t.Fatal("step schedule not serializable")
		}
		// …hence PWSR over the partition…
		if !sys.CheckPWSR(res.Schedule).PWSR {
			t.Fatal("step schedule not PWSR")
		}
		// …and strongly correct.
		sc, err := sys.CheckStrongCorrectness(res.Schedule, initial)
		if err != nil {
			t.Fatal(err)
		}
		if !sc.StronglyCorrect {
			t.Fatalf("saga execution violated consistency: %v", sc.Violations())
		}
		// Both conservation constraints hold in the final state.
		sum := func(x, y string) int64 {
			return res.Final.MustGet(x).AsInt() + res.Final.MustGet(y).AsInt()
		}
		if sum("a1", "a2") != 10 || sum("b1", "b2") != 10 {
			t.Fatalf("conservation broken: %v", res.Final)
		}
	}
}

func TestSagaStepNames(t *testing.T) {
	p := program.MustParse(`program T { a1 := a1 + 1; b1 := b1 + 1; }`)
	sg, err := Decompose(p, partition2())
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range sg.Steps {
		if !strings.Contains(st.Program.Name, "T_step") {
			t.Fatalf("step %d name = %q", i, st.Program.Name)
		}
	}
}
