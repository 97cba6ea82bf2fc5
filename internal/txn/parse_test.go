package txn

import (
	"math"
	"testing"

	"pwsr/internal/state"
)

func TestParseScheduleBasic(t *testing.T) {
	s, err := ParseSchedule("r2(a, 0), r1(a, 0), w2(d, 0), r1(c, 5), w1(b, 5)")
	if err != nil {
		t.Fatal(err)
	}
	want := example1Schedule()
	if s.Len() != want.Len() {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		if !s.Op(i).Same(want.Op(i)) {
			t.Fatalf("op %d = %v, want %v", i, s.Op(i), want.Op(i))
		}
	}
}

func TestParseScheduleNegativeAndStrings(t *testing.T) {
	s, err := ParseSchedule(`w1(a, -1) r2(name, "jim")`)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Op(0).Value.Equal(state.Int(-1)) {
		t.Errorf("op0 value = %v", s.Op(0).Value)
	}
	if !s.Op(1).Value.Equal(state.Str("jim")) {
		t.Errorf("op1 value = %v", s.Op(1).Value)
	}
}

func TestParseScheduleLeadingLabel(t *testing.T) {
	s, err := ParseSchedule("S r1(a, 0)")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestParseScheduleMultiDigitIDs(t *testing.T) {
	s, err := ParseSchedule("r12(a, 0)")
	if err != nil {
		t.Fatal(err)
	}
	if s.Op(0).Txn != 12 {
		t.Errorf("txn id = %d", s.Op(0).Txn)
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"x1(a, 0)",
		"r(a, 0)",
		"r1(a)",
		"r1(a, )",
		"r1 a, 0)",
		"r1(a, 0",
		"r1(a, 0) trailing(",
		"ra(a, 0)",
	} {
		if _, err := ParseSchedule(src); err == nil {
			t.Errorf("ParseSchedule(%q) succeeded, want error", src)
		}
	}
}

func TestParseScheduleRoundTrip(t *testing.T) {
	orig := example1Schedule()
	// String gives "S: op, op, ..." — strip the label for re-parsing.
	re, err := ParseSchedule(orig.Ops().String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < orig.Len(); i++ {
		if !re.Op(i).Same(orig.Op(i)) {
			t.Fatalf("round trip op %d = %v, want %v", i, re.Op(i), orig.Op(i))
		}
	}
}

// TestParseScheduleRoundTripsExtremeValues: a schedule prints and
// re-parses values of every int64 magnitude. MinInt64 is out of scope:
// its magnitude is not an int64 literal.
func TestParseScheduleRoundTripsExtremeValues(t *testing.T) {
	orig := NewSchedule(
		R(1, "a", math.MaxInt64),
		W(1, "a", -math.MaxInt64),
		R(2, "b", 5000000000000000000),
		W(2, "b", math.MaxInt64-1),
	)
	re, err := ParseSchedule(orig.Ops().String())
	if err != nil {
		t.Fatalf("ParseSchedule(%q): %v", orig.Ops().String(), err)
	}
	if re.Len() != orig.Len() {
		t.Fatalf("round trip has %d ops, want %d", re.Len(), orig.Len())
	}
	for i := 0; i < orig.Len(); i++ {
		if !re.Op(i).Same(orig.Op(i)) {
			t.Fatalf("round trip op %d = %v, want %v", i, re.Op(i), orig.Op(i))
		}
	}
}

func TestMustParseSchedulePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseSchedule did not panic on bad input")
		}
	}()
	MustParseSchedule("not a schedule (")
}
