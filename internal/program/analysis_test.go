package program

import (
	"errors"
	"testing"

	"pwsr/internal/constraint"
	"pwsr/internal/state"
)

func TestStaticTraceStraightLine(t *testing.T) {
	p := MustParse(`program T { b := a + 1; c := a; }`)
	tr, err := StaticTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	if tr.String() != "r1(a), w1(b), w1(c)" {
		t.Fatalf("trace = %s", tr)
	}
}

func TestStaticTraceConstControl(t *testing.T) {
	// Control flow on constant locals is state independent: the loop
	// unrolls statically.
	p := MustParse(`program T {
		let i := 0;
		while (i < 2) { i := i + 1; }
		if (i = 2) { a := 1; } else { b := 1; }
	}`)
	tr, err := StaticTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	if tr.String() != "w1(a)" {
		t.Fatalf("trace = %s", tr)
	}
}

func TestStaticTraceDataDependentControl(t *testing.T) {
	p := MustParse(`program T { if (c > 0) { b := 1; } }`)
	if _, err := StaticTrace(p); !errors.Is(err, ErrNotStatic) {
		t.Fatalf("err = %v, want ErrNotStatic", err)
	}
	// Tainted local in a condition is equally dynamic.
	p2 := MustParse(`program T { let x := c; if (x > 0) { b := 1; } }`)
	if _, err := StaticTrace(p2); !errors.Is(err, ErrNotStatic) {
		t.Fatalf("err = %v, want ErrNotStatic", err)
	}
}

func TestStaticTraceDisciplineCache(t *testing.T) {
	// Second use of a emits no read; use after own write emits nothing.
	p := MustParse(`program T { b := a; c := a; a := 5; d := a; }`)
	tr, err := StaticTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	if tr.String() != "r1(a), w1(b), w1(c), w1(a), w1(d)" {
		t.Fatalf("trace = %s", tr)
	}
}

func TestStaticTraceDoubleWrite(t *testing.T) {
	p := MustParse(`program T { a := 1; a := 2; }`)
	if _, err := StaticTrace(p); !errors.Is(err, ErrDiscipline) {
		t.Fatalf("err = %v, want ErrDiscipline", err)
	}
}

func TestStaticTraceMatchesExecution(t *testing.T) {
	// For programs where StaticTrace succeeds, it must equal the
	// structure of an actual run.
	srcs := []string{
		`program T { b := a + 1; }`,
		`program T { let x := 3; if (x > 2) { a := x; } else { b := x; } }`,
		`program T { let temp := c; a := temp + 20; c := temp + 20; }`,
	}
	ds := state.Ints(map[string]int64{"a": 1, "b": 2, "c": 3})
	for _, src := range srcs {
		p := MustParse(src)
		tr, err := StaticTrace(p)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		got, err := NewInterp().StructureFrom(p, ds)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Equal(got) {
			t.Errorf("%s: static %s != dynamic %s", src, tr, got)
		}
	}
}

// TestReadOnlyDecidedWhenBuilt pins that a built program answers
// ReadOnly from what it decided when it was built — Parse, Clone and
// Balance agree with the table and with WriteTargets, and answering
// allocates nothing — while a hand-built literal is resolved again on
// every call.
func TestReadOnlyDecidedWhenBuilt(t *testing.T) {
	for src, want := range map[string]bool{
		`program R { let a := x; let b := a + y; }`:                 true,
		`program L { let t := 0; while (t < x) { t := t + 1; } }`:   true,
		`program W { let a := x; y := a + 1; }`:                     false,
		`program B { t := 1; let t := 2; }`:                         false, // assigned before its let
		`program I { if (x > 0) { y := 1; } else { let z := 2; } }`: false,
	} {
		p := MustParse(src)
		literal := &Program{Name: p.Name, Body: p.Body}
		balanced, err := Balance(p)
		if err != nil {
			balanced = p.Clone() // loops do not balance; Clone is the other builder
		}
		for name, q := range map[string]*Program{"parsed": p, "cloned": p.Clone(), "balanced": balanced, "literal": literal} {
			if got := q.ReadOnly(); got != want || got != q.WriteTargets().Empty() {
				t.Errorf("%s %s: ReadOnly = %v, WriteTargets = %v, want read-only %v", name, p.Name, got, q.WriteTargets(), want)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { p.ReadOnly() }); allocs != 0 {
			t.Errorf("%s: a built program's ReadOnly allocates %.0f times, want 0", p.Name, allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() { literal.ReadOnly() }); allocs == 0 {
			t.Errorf("%s: a literal's ReadOnly was not resolved again", p.Name)
		}
	}
}

func TestCheckFixedStructureStatic(t *testing.T) {
	p := MustParse(`program T { d := a; }`)
	rep, err := CheckFixedStructure(p, state.UniformInts(-2, 2, "a", "d"), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fixed || !rep.Static {
		t.Fatalf("report = %+v", rep)
	}
}

func TestCheckFixedStructureExhaustiveNegative(t *testing.T) {
	// Example 2's TP1 is not fixed-structure; small domains make the
	// check exhaustive and exact.
	p := MustParse(`program TP1 {
		a := 1;
		if (c > 0) { b := abs(b) + 1; }
	}`)
	rep, err := CheckFixedStructure(p, state.UniformInts(-2, 2, "a", "b", "c"), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fixed {
		t.Fatal("Example 2's TP1 reported fixed-structure")
	}
	if !rep.Exhaustive {
		t.Fatal("small domain should be exhaustive")
	}
	if rep.StructA.Equal(rep.StructB) {
		t.Fatal("witness structures should differ")
	}
	if rep.WitnessA == nil || rep.WitnessB == nil {
		t.Fatal("missing witnesses")
	}
}

func TestCheckFixedStructureBalancedPositive(t *testing.T) {
	// TP1' (the padded version) IS fixed-structure.
	p := MustParse(`program TP1' {
		a := 1;
		if (c > 0) { b := abs(b) + 1; } else { b := b; }
	}`)
	rep, err := CheckFixedStructure(p, state.UniformInts(-2, 2, "a", "b", "c"), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fixed {
		t.Fatalf("TP1' not fixed-structure: %s vs %s from %v / %v",
			rep.StructA, rep.StructB, rep.WitnessA, rep.WitnessB)
	}
}

func TestCheckFixedStructureSampled(t *testing.T) {
	// Large domains force sampling; the branch-dependent program should
	// still be caught.
	p := MustParse(`program T { if (c > 0) { b := 1; } else { a := 1; } }`)
	rep, err := CheckFixedStructure(p, state.UniformInts(-1000, 1000, "a", "b", "c"), 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fixed || rep.Exhaustive {
		t.Fatalf("report = %+v", rep)
	}
}

func TestCheckFixedStructureMissingDomain(t *testing.T) {
	p := MustParse(`program T { if (zz > 0) { b := 1; } }`)
	if _, err := CheckFixedStructure(p, state.UniformInts(0, 1, "b"), 4, 1); err == nil {
		t.Fatal("missing domain accepted")
	}
}

func TestCheckCorrectnessPositive(t *testing.T) {
	// Example 2's TP1 IS correct in isolation: from a consistent state
	// c > 0 holds, so the branch always fires and makes b positive.
	ic, _ := constraint.ParseICFromConjuncts("a > 0 -> b > 0", "c > 0")
	checker := constraint.NewChecker(ic, state.UniformInts(-5, 5, "a", "b", "c"))
	p := MustParse(`program TP1 {
		a := 1;
		if (c > 0) { b := abs(b) + 1; }
	}`)
	rep, err := CheckCorrectness(p, checker, 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("TP1 reported incorrect: from %v to %v", rep.Witness, rep.Final)
	}
	if rep.Trials == 0 {
		t.Fatal("no trials ran")
	}
}

func TestCheckCorrectnessNegative(t *testing.T) {
	ic, _ := constraint.ParseICFromConjuncts("a = b")
	checker := constraint.NewChecker(ic, state.UniformInts(-5, 5, "a", "b"))
	p := MustParse(`program Bad { a := a + 1; }`)
	rep, err := CheckCorrectness(p, checker, 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct {
		t.Fatal("consistency-breaking program reported correct")
	}
	if rep.Witness == nil || rep.Final == nil {
		t.Fatal("missing witness states")
	}
}

func TestCheckCorrectnessUnsatisfiableIC(t *testing.T) {
	ic, _ := constraint.ParseICFromConjuncts("a != a")
	checker := constraint.NewChecker(ic, state.UniformInts(0, 1, "a"))
	p := MustParse(`program T { a := 1; }`)
	if _, err := CheckCorrectness(p, checker, 10, 3); err == nil {
		t.Fatal("unsatisfiable IC should fail sampling")
	}
}
