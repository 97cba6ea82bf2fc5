package program

import (
	"testing"

	"pwsr/internal/state"
)

// FuzzParse checks the program parser never panics and that parsed
// programs round-trip through their printed source.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"program T { a := 1; }",
		"program TP1 { a := 1; if (c > 0) { b := abs(b) + 1; } else { b := b; } }",
		"program L { let i := 0; while (i < 3) { i := i + 1; } }",
		"program N { if (a > 0) b := 1; else if (a < 0) b := 2; else b := 3; }",
		"program E { let temp := c; a := temp + 20; c := temp + 20; }",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		printed := p.String()
		re, err := Parse(printed)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", printed, src, err)
		}
		if re.String() != printed {
			t.Fatalf("unstable print: %q -> %q", printed, re.String())
		}
	})
}

// FuzzInterpForms checks the statement forms against the general
// evaluator: a parsed program runs through Run, through a Machine
// suspended at every operation, and through the name-keyed reference
// interpreter, strict and not, and all three must emit the same
// operations and end in the same state with the same error text. vals
// draws the initial state, three bits per data item in name order: an
// integer from -3 to 2, no value at all (a read error), or a string
// (the forms' type fallback). The seed corpus in testdata/fuzz holds
// form-heavy programs and replays with every go test.
func FuzzInterpForms(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string, vals uint64) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		ds := state.NewDB()
		for i, item := range p.DataItems().Sorted() {
			switch v := vals >> (3 * (i % 21)) & 7; v {
			case 6:
			case 7:
				ds.Set(item, state.Str("text"))
			default:
				ds.Set(item, state.Int(int64(v)-3))
			}
		}
		for _, in := range []*Interp{{MaxSteps: 200, Strict: true}, {MaxSteps: 200}} {
			want := runReference(in, p, ds)
			if got := runSlots(in, p, ds); !same(got, want) {
				t.Fatalf("strict=%v: Run diverges from the reference\n%s\nfrom %v\n got %v\nwant %v", in.Strict, src, ds, got, want)
			}
			if got := runSuspended(in, p, ds); !same(got, want) {
				t.Fatalf("strict=%v: a suspended Machine diverges from the reference\n%s\nfrom %v\n got %v\nwant %v", in.Strict, src, ds, got, want)
			}
		}
	})
}
