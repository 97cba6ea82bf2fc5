package constraint

import (
	"fmt"
	"strings"
	"testing"

	"pwsr/internal/state"
)

// TestNamesNumbering: slots are dense, 1-based, in first-occurrence
// order, stable on repeats — across the switch from the linear scan to
// the index — and a nil *Names numbers nothing.
func TestNamesNumbering(t *testing.T) {
	var nilNames *Names
	if s := nilNames.Slot("x"); s != 0 {
		t.Fatalf("nil Names numbered x as %d", s)
	}
	if v := nilNames.Var("x"); v.Name != "x" || v.Slot != 0 {
		t.Fatalf("nil Names built %+v", v)
	}
	var n Names
	for round := 0; round < 2; round++ {
		for i := 0; i < 100; i++ {
			if s := n.Slot(fmt.Sprintf("n%d", i)); s != int32(i+1) {
				t.Fatalf("round %d: n%d has slot %d, want %d", round, i, s, i+1)
			}
		}
	}
	if n.Len() != 100 || n.At(37) != "n36" {
		t.Fatalf("Len %d, At(37) %q", n.Len(), n.At(37))
	}
}

// TestNamesIntern: interned spellings are equal to the originals and are
// all cut from one string that holds nothing else.
func TestNamesIntern(t *testing.T) {
	src := "alpha beta alpha gamma" + strings.Repeat(" ", 1000)
	var n Names
	for _, f := range strings.Fields(src) {
		n.Slot(f)
	}
	name := n.Intern(src[:5] + "Prog")
	if name != "alphaProg" || n.Len() != 3 || n.At(1) != "alpha" || n.At(2) != "beta" || n.At(3) != "gamma" {
		t.Fatalf("interned %q, %q, %q, extra %q", n.At(1), n.At(2), n.At(3), name)
	}
	if n.Slot("beta") != 2 {
		t.Fatal("interning renumbered a name")
	}
}

// TestParserNumbersVars: with NumberVars every Var the parser builds
// carries its name's slot, in one numbering with the names the caller
// numbered itself; without it every slot is 0.
func TestParserNumbersVars(t *testing.T) {
	collect := func(f Formula) (out []string) {
		EachVar(f, func(v *Var) { out = append(out, fmt.Sprintf("%s/%d", v.Name, v.Slot)) })
		return out
	}
	p, err := NewParser("(b + a) * b > min(a, c) & c = b")
	if err != nil {
		t.Fatal(err)
	}
	var names Names
	p.NumberVars(&names)
	names.Slot("z")
	f, err := p.Formula()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(collect(f), " "); got != "b/2 a/3 b/2 a/3 c/4 c/4 b/2" {
		t.Fatalf("numbered vars: %s", got)
	}
	plain, err := ParseFormula("a > b")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(collect(plain), " "); got != "a/0 b/0" {
		t.Fatalf("unnumbered vars: %s", got)
	}
}

// TestCopyOwnsItsVars: a copy shares no Var with its source and carries
// the copier's numbering, leaving the source's untouched.
func TestCopyOwnsItsVars(t *testing.T) {
	var a, b Names
	b.Slot("pad")
	p, _ := NewParser("abs(x) + y * -x > 0 -> !(y = 1 | x != 2) <-> true")
	p.NumberVars(&a)
	f, err := p.Formula()
	if err != nil {
		t.Fatal(err)
	}
	g := CopyFormula(f, &b)
	if g.String() != f.String() {
		t.Fatalf("copy reads %s, source %s", g, f)
	}
	seen := map[*Var]bool{}
	EachVar(f, func(v *Var) {
		seen[v] = true
		if want := a.Slot(v.Name); v.Slot != want {
			t.Errorf("source %s renumbered to %d", v.Name, v.Slot)
		}
	})
	EachVar(g, func(v *Var) {
		if seen[v] {
			t.Errorf("copy shares the node of %s", v.Name)
		}
		if want := b.Slot(v.Name); v.Slot != want || want < 2 {
			t.Errorf("copy's %s has slot %d, want %d", v.Name, v.Slot, want)
		}
	})
}

// TestCallEvaluation: a call evaluates without a heap slice, its name is
// the canonical constant rather than a piece of the source, and a
// hand-built call of the wrong arity or name is an error, not a panic.
func TestCallEvaluation(t *testing.T) {
	db := state.Ints(map[string]int64{"x": -4, "y": 9})
	e, err := ParseExpr("max(abs(x), min(y, 3)) + abs(y)")
	if err != nil {
		t.Fatal(err)
	}
	look := DBLookup(db)
	if v, err := EvalExpr(e, look); err != nil || v != state.Int(13) {
		t.Fatalf("value %v, err %v", v, err)
	}
	if allocs := testing.AllocsPerRun(100, func() { EvalExpr(e, look) }); allocs != 0 {
		t.Errorf("evaluating calls allocates %.1f times", allocs)
	}
	x := &Var{Name: "x"}
	for _, c := range []*Call{
		{Fn: "abs"}, {Fn: "abs", Args: []Expr{x, x}}, {Fn: "min", Args: []Expr{x}},
		{Fn: "max", Args: []Expr{x, x, x}}, {Fn: "sqrt", Args: []Expr{x}},
	} {
		if v, err := EvalExpr(c, look); err == nil {
			t.Errorf("%s = %v, want an error", c, v)
		}
	}
}

// TestTokenizeDoesNotRegrow: the token list is sized from the source, so
// statement text fills it without reallocation.
func TestTokenizeDoesNotRegrow(t *testing.T) {
	src := strings.Repeat("d3c1 := abs(d3c1) % 89 + 2;\n", 16)
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 16*11+1 {
		t.Fatalf("%d tokens", len(toks))
	}
	if allocs := testing.AllocsPerRun(50, func() { Tokenize(src) }); allocs > 1 {
		t.Errorf("Tokenize allocates %.1f times, want once", allocs)
	}
}
