package setwise

import (
	"context"
	"math/rand"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

func TestNewDecompositionDisjointness(t *testing.T) {
	if _, err := NewDecomposition(state.NewItemSet("a"), state.NewItemSet("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDecomposition(state.NewItemSet("a", "b"), state.NewItemSet("b")); err == nil {
		t.Fatal("overlapping atomic data sets accepted")
	}
}

func TestSetOf(t *testing.T) {
	d, _ := NewDecomposition(state.NewItemSet("a"), state.NewItemSet("b"))
	if d.SetOf("a") != 0 || d.SetOf("b") != 1 || d.SetOf("z") != -1 {
		t.Fatal("SetOf wrong")
	}
}

func TestSetwiseSerializableBasic(t *testing.T) {
	d, _ := NewDecomposition(state.NewItemSet("a", "b"), state.NewItemSet("c"))
	// Example 2's schedule: setwise serializable over {a,b},{c}.
	s := txn.MustParseSchedule("w1(a, 1), r2(a, 1), r2(b, -1), w2(c, -1), r1(c, -1)")
	if !IsSetwiseSerializable(s, d) {
		t.Fatal("Example 2's schedule is setwise serializable")
	}
	// A lost update within one set is not.
	bad := txn.NewSchedule(
		txn.R(1, "a", 0), txn.R(2, "a", 0), txn.W(1, "a", 1), txn.W(2, "a", 2),
	)
	if IsSetwiseSerializable(bad, d) {
		t.Fatal("lost update accepted")
	}
}

func TestSetwiseAgreesWithPWSR(t *testing.T) {
	// On disjoint partitions, setwise serializability IS Definition 2.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		w := gen.MustGenerate(gen.Config{
			Conjuncts: 3, Programs: 3, MovesPerProgram: 2,
			Style: gen.Style(trial % 3), Seed: rng.Int63(),
		})
		programs := w.Programs
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: programs,
			Initial:  w.Initial,
			Policy:   sched.NewRandom(rng.Int63()),
		})
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDecomposition(w.DataSets...)
		if err != nil {
			t.Fatal(err)
		}
		setwiseOK := IsSetwiseSerializable(res.Schedule, d)
		pwsrOK := core.CheckPWSR(res.Schedule, w.DataSets).PWSR
		if setwiseOK != pwsrOK {
			t.Fatalf("trial %d: setwise=%v pwsr=%v for %s", trial, setwiseOK, pwsrOK, res.Schedule)
		}
	}
}

func TestElementarySchedules(t *testing.T) {
	d, _ := NewDecomposition(state.NewItemSet("a"), state.NewItemSet("b"))
	s := txn.NewSchedule(txn.W(1, "a", 1), txn.W(1, "b", 2))
	els := d.ElementarySchedules(s)
	if len(els) != 2 || els[0].Len() != 1 || els[1].Len() != 1 {
		t.Fatalf("elementary = %v", els)
	}
}

func TestStraightLineChecks(t *testing.T) {
	sl := program.MustParse(`program SL { a := a + 1; b := a; }`)
	if !IsStraightLine(sl) {
		t.Fatal("straight-line not recognized")
	}
	tr, err := StraightLineIsFixedStructure(sl)
	if err != nil {
		t.Fatal(err)
	}
	if tr.String() != "r1(a), w1(a), w1(b)" {
		t.Fatalf("trace = %s", tr)
	}
	cond := program.MustParse(`program C { if (a > 0) { b := 1; } }`)
	if IsStraightLine(cond) {
		t.Fatal("conditional program reported straight line")
	}
	if _, err := StraightLineIsFixedStructure(cond); err == nil {
		t.Fatal("conditional accepted by StraightLineIsFixedStructure")
	}
}

func TestFixedStructureStrictlyLargerThanStraightLine(t *testing.T) {
	// The paper's generalization is strict: TP1' is fixed-structure but
	// not straight line.
	tp1p := program.MustParse(`program TP1' {
		a := 1;
		if (c > 0) { b := abs(b) + 1; } else { b := b; }
	}`)
	if IsStraightLine(tp1p) {
		t.Fatal("TP1' is not straight line")
	}
	rep, err := program.CheckFixedStructure(tp1p, state.UniformInts(-2, 2, "a", "b", "c"), 0, 1)
	if err != nil || !rep.Fixed {
		t.Fatalf("TP1' fixed-structure check: %v %+v", err, rep)
	}
}
