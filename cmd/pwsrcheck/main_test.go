package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pwsr/internal/state"
	"pwsr/internal/txn"
)

func TestParseState(t *testing.T) {
	db, err := parseState(`a=-1, b=2, name="jim"`)
	if err != nil {
		t.Fatal(err)
	}
	if !db.MustGet("a").Equal(state.Int(-1)) ||
		!db.MustGet("b").Equal(state.Int(2)) ||
		!db.MustGet("name").Equal(state.Str("jim")) {
		t.Fatalf("parsed = %v", db)
	}
}

func TestParseStateErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"a",
		"a=",
		"=1",
		"a=x",
		`a="unterminated`,
		"a=0, a=1",
		`a=0, b=2, a="x"`,
	} {
		if _, err := parseState(src); err == nil {
			t.Errorf("parseState(%q) succeeded, want error", src)
		}
	}
}

func TestRunExample2EndToEnd(t *testing.T) {
	err := run(
		"a > 0 -> b > 0; c > 0",
		"w1(a,1), r2(a,1), r2(b,-1), w2(c,-1), r1(c,-1)",
		"a=-1, b=-1, c=1",
		-64, 64, true,
	)
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsEmptyDomain pins that -lo above -hi is refused before
// any analysis, naming both bounds, on the schedule and the history
// path alike.
func TestRunRejectsEmptyDomain(t *testing.T) {
	err := run("a > 0", "r1(a,1)", "a=1", 5, 0, false)
	if err == nil || !strings.Contains(err.Error(), "-lo 5 exceeds -hi 0") {
		t.Fatalf("run with lo 5, hi 0 = %v, want the empty-domain error", err)
	}
	data, err := txn.EncodeHistory(state.DB{"a": state.Int(1)}, txn.MustParseSchedule("r1(a,1)"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "h.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = runHistory("a > 0", path, 5, 0, false)
	if err == nil || !strings.Contains(err.Error(), "-lo 5 exceeds -hi 0") {
		t.Fatalf("runHistory with lo 5, hi 0 = %v, want the empty-domain error", err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := [][3]string{
		{"a >", "r1(a,0)", "a=0"},                // bad conjunct
		{"a > 0", "nonsense", "a=0"},             // bad schedule
		{"a > 0", "r1(a,0)", "zzz"},              // bad state
		{"a > 0", "r1(a,5)", "a=0"},              // values do not replay
		{"a > 0", "r1(a,0), r1(a,0)", "a=0"},     // discipline violation
		{"a > 0", "r1(a,1)", "a=0, a=1"},         // item assigned twice
		{"a > 0", "w1(a,999), r2(a,999)", "a=0"}, // outside domain? replay fine but domain check on initial only
	}
	for i, c := range cases {
		err := run(c[0], c[1], c[2], -64, 64, false)
		if i == len(cases)-1 {
			// The last case is legal: writes may exceed the solver
			// domain; only the initial state is validated.
			continue
		}
		if err == nil {
			t.Errorf("case %d accepted: %v", i, c)
		}
	}
}
