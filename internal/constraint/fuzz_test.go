package constraint

import (
	"testing"
)

// FuzzParseFormula checks the parser never panics and that successfully
// parsed formulas round-trip through their printed form.
func FuzzParseFormula(f *testing.F) {
	for _, seed := range []string{
		"a = b",
		"(a > 0 -> b > 0) & (c > 0)",
		"!(a = b) | min(a, b) < max(a, b)",
		"abs(a - b) <= 1 <-> c != d",
		`name = "jim" & a % 2 = 0`,
		"-a * (b + 1) / 2 >= -3",
		"true & false",
		"a = 5 -> b = 5 -> c = 5",
		"((((a = 1))))",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		formula, err := ParseFormula(src)
		if err != nil {
			return
		}
		printed := formula.String()
		re, err := ParseFormula(printed)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", printed, src, err)
		}
		if re.String() != printed {
			t.Fatalf("unstable print: %q -> %q", printed, re.String())
		}
	})
}

// FuzzParseIC checks the integrity-constraint pipeline end to end: a
// parsed IC must round-trip through its rendered conjunction with the
// same conjunct decomposition, and the derived structure (items,
// disjointness, partition) must be internally consistent. The seed
// corpus is checked in under testdata/fuzz/FuzzParseIC.
func FuzzParseIC(f *testing.F) {
	for _, seed := range []string{
		"a = b",
		"(x1 > 0 -> y1 > 0) & (x2 = y2) & (y3 > 0)",
		"a > 0 & a < 10",
		"(a = 1 | b = 2) & !(c = 3)",
		`name = "jim" & n % 2 = 0 & abs(d - e) <= 1`,
		"true",
		"((a = 1) & (b = 2)) & c = 3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ic, err := ParseIC(src)
		if err != nil {
			return
		}
		printed := ic.Formula().String()
		re, err := ParseIC(printed)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", printed, src, err)
		}
		if re.Len() != ic.Len() {
			t.Fatalf("conjunct count changed across round trip: %d -> %d (%q)", ic.Len(), re.Len(), printed)
		}
		for i, c := range ic.Conjuncts() {
			rc := re.Conjuncts()[i]
			if rc.F.String() != c.F.String() {
				t.Fatalf("conjunct %d changed: %q -> %q", i, c.F.String(), rc.F.String())
			}
			if !rc.Items.Equal(c.Items) {
				t.Fatalf("conjunct %d items changed: %v -> %v", i, c.Items, rc.Items)
			}
		}
		if re.Disjoint() != ic.Disjoint() {
			t.Fatalf("disjointness changed across round trip for %q", src)
		}
		// The union of conjunct data sets must be exactly Items().
		union := make(map[string]bool)
		for _, c := range ic.Conjuncts() {
			for _, it := range c.Items.Sorted() {
				union[it] = true
			}
		}
		for _, it := range ic.Items().Sorted() {
			if !union[it] {
				t.Fatalf("item %q missing from every conjunct of %q", it, src)
			}
		}
		if ic.Disjoint() {
			if got := len(ic.SharedItems().Sorted()); got != 0 {
				t.Fatalf("disjoint IC has %d shared items", got)
			}
		}
	})
}

// FuzzTokenize checks the lexer never panics and terminates.
func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"a := 1;",
		`"str \" esc"`,
		"if (a > 0) { b := 1; } else { c := 2; }",
		"<-> -> <= >= != := && || ==",
		"# comment\n// another\nx",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := Tokenize(src)
		if err != nil {
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != TokEOF {
			t.Fatalf("token stream not EOF-terminated for %q", src)
		}
	})
}
