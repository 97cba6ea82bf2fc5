package constraint

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func kinds(toks []Token) []TokKind {
	out := make([]TokKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestTokenizeOperators(t *testing.T) {
	toks, err := Tokenize("( ) { } , ; + - * / % = != < <= > >= ! & | -> <-> :=")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{
		TokLParen, TokRParen, TokLBrace, TokRBrace, TokComma, TokSemi,
		TokPlus, TokMinus, TokStar, TokSlash, TokPct,
		TokEq, TokNeq, TokLt, TokLe, TokGt, TokGe,
		TokNot, TokAnd, TokOr, TokArrow, TokDArrow, TokAssign, TokEOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("token count = %d, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTokenizeDoubleCharAliases(t *testing.T) {
	toks, err := Tokenize("a && b || c == d")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{TokIdent, TokAnd, TokIdent, TokOr, TokIdent, TokEq, TokIdent, TokEOF}
	for i, k := range kinds(toks) {
		if k != want[i] {
			t.Fatalf("token %d = %v, want %v", i, k, want[i])
		}
	}
}

func TestTokenizeLiteralsAndIdents(t *testing.T) {
	toks, err := Tokenize(`x1 := 42 ; name = "Jim \"q\"" ; t' := 0`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokIdent || toks[0].Text != "x1" {
		t.Fatalf("tok0 = %+v", toks[0])
	}
	if toks[2].Kind != TokInt || toks[2].Int != 42 {
		t.Fatalf("tok2 = %+v", toks[2])
	}
	if toks[6].Kind != TokString || toks[6].Text != `Jim "q"` {
		t.Fatalf("tok6 = %+v", toks[6])
	}
	// primed identifiers (d', T1') are legal, matching the paper's naming
	if toks[8].Kind != TokIdent || toks[8].Text != "t'" {
		t.Fatalf("tok8 = %+v", toks[8])
	}
}

func TestTokenizeComments(t *testing.T) {
	toks, err := Tokenize("a # trailing\n// whole line\nb")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{TokIdent, TokIdent, TokEOF}
	for i, k := range kinds(toks) {
		if k != want[i] {
			t.Fatalf("token %d = %v, want %v", i, k, want[i])
		}
	}
}

func TestTokenizePositions(t *testing.T) {
	toks, err := Tokenize("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Fatalf("tok0 at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Fatalf("tok1 at %d:%d, want 2:3", toks[1].Line, toks[1].Col)
	}
}

func TestTokenizeErrors(t *testing.T) {
	for _, src := range []string{
		`"unterminated`,
		`"bad \q escape"`,
		`a ~ b`,
		`99999999999999999999999`,
	} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q) succeeded, want error", src)
		}
	}
}

// TestTokenizeIntegerBounds: every int64 magnitude is a literal, and
// nothing above it. MinInt64 is out of scope: its magnitude is not an
// int64, so "-9223372036854775808" is a minus and an overflowing literal.
func TestTokenizeIntegerBounds(t *testing.T) {
	for _, c := range []struct {
		src  string
		want int64
	}{
		{"4611686018427387904", 1 << 62},
		{"4611686018427387910", 4611686018427387910},
		{"5000000000000000000", 5000000000000000000},
		{"9223372036854775807", math.MaxInt64},
	} {
		toks, err := Tokenize(c.src)
		if err != nil {
			t.Errorf("Tokenize(%q): %v", c.src, err)
			continue
		}
		if toks[0].Kind != TokInt || toks[0].Int != c.want {
			t.Errorf("Tokenize(%q) = %+v, want the integer %d", c.src, toks[0], c.want)
		}
	}
	for _, src := range []string{"9223372036854775808", "9223372036854775810", "10000000000000000000"} {
		if _, err := Tokenize(src); err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("Tokenize(%q) = %v, want an overflow error", src, err)
		}
	}
}

func TestSyntaxErrorFormat(t *testing.T) {
	_, err := Tokenize("\n  ~")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T, want *SyntaxError", err)
	}
	if se.Line != 2 || se.Col != 3 {
		t.Fatalf("error at %d:%d, want 2:3", se.Line, se.Col)
	}
	if se.Error() == "" {
		t.Fatal("empty error text")
	}
}

func TestTokenizeStringEscapeRoundTrip(t *testing.T) {
	// Fuzzing found that values printed with strconv.Quote can contain
	// \xHH escapes; the lexer must read back everything Quote emits.
	for _, raw := range []string{"\x02", "jim\nann", "tab\there", `back\slash`, "é"} {
		src := "x = " + strconvQuote(raw)
		toks, err := Tokenize(src)
		if err != nil {
			t.Fatalf("Tokenize(%q): %v", src, err)
		}
		if toks[2].Kind != TokString || toks[2].Text != raw {
			t.Fatalf("decoded %q, want %q", toks[2].Text, raw)
		}
	}
}

func strconvQuote(s string) string { return strconv.Quote(s) }
