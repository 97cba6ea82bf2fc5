package txn

import (
	"testing"

	"pwsr/internal/state"
)

// example1Schedule is the schedule of Example 1:
// S: r2(a, 0), r1(a, 0), w2(d, 0), r1(c, 5), w1(b, 5)
// (the paper's displayed S has a typo "r1(a,0), r1(a,0)"; the
// accompanying text and S^{a,c} = r2(a,0), r1(a,0), r1(c,5) confirm the
// first op is T2's read).
func example1Schedule() *Schedule {
	return NewSchedule(
		R(2, "a", 0),
		R(1, "a", 0),
		W(2, "d", 0),
		R(1, "c", 5),
		W(1, "b", 5),
	)
}

func TestExample1Transactions(t *testing.T) {
	s := example1Schedule()
	ids := s.TxnIDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("TxnIDs = %v", ids)
	}
	t1 := s.Txn(1)
	if t1.String() != "T1: r1(a, 0), r1(c, 5), w1(b, 5)" {
		t.Errorf("T1 = %q", t1.String())
	}
	t2 := s.Txn(2)
	if t2.String() != "T2: r2(a, 0), w2(d, 0)" {
		t.Errorf("T2 = %q", t2.String())
	}
}

func TestExample1Notation(t *testing.T) {
	// The assertions made at the end of Example 1.
	s := example1Schedule()
	t1 := s.Txn(1)

	if !t1.RS().Equal(state.NewItemSet("a", "c")) {
		t.Errorf("RS(T1) = %v", t1.RS())
	}
	if !t1.ReadState().Equal(state.Ints(map[string]int64{"a": 0, "c": 5})) {
		t.Errorf("read(T1) = %v", t1.ReadState())
	}
	if !t1.WS().Equal(state.NewItemSet("b")) {
		t.Errorf("WS(T1) = %v", t1.WS())
	}
	if !t1.WriteState().Equal(state.Ints(map[string]int64{"b": 5})) {
		t.Errorf("write(T1) = %v", t1.WriteState())
	}
	// T1^{b} = w1(b, 5)
	tb := t1.Restrict(state.NewItemSet("b"))
	if tb.Ops.String() != "w1(b, 5)" {
		t.Errorf("T1^{b} = %q", tb.Ops.String())
	}
	// S^{a, c} = r2(a, 0), r1(a, 0), r1(c, 5)
	sac := s.Restrict(state.NewItemSet("a", "c"))
	if sac.Ops().String() != "r2(a, 0), r1(a, 0), r1(c, 5)" {
		t.Errorf("S^{a,c} = %q", sac.Ops().String())
	}
}

func TestExample1FinalState(t *testing.T) {
	// [DS1] S [DS2] with DS1 = {(a,0),(b,10),(c,5),(d,10)} gives
	// DS2 = {(a,0),(b,5),(c,5),(d,0)}.
	s := example1Schedule()
	ds1 := state.Ints(map[string]int64{"a": 0, "b": 10, "c": 5, "d": 10})
	ds2 := s.FinalState(ds1)
	want := state.Ints(map[string]int64{"a": 0, "b": 5, "c": 5, "d": 0})
	if !ds2.Equal(want) {
		t.Fatalf("DS2 = %v, want %v", ds2, want)
	}
	if err := s.ConsistentValues(ds1); err != nil {
		t.Fatalf("ConsistentValues: %v", err)
	}
}

func TestBeforeAfter(t *testing.T) {
	// §3.1's worked illustration with p = w2(d, 0):
	// before(T2, p, S) = r2(a,0), w2(d,0)
	// after(T1, p, S) = r1(c,5), w1(b,5)
	s := example1Schedule()
	p := s.Op(2) // w2(d, 0)
	t1, t2 := s.Txn(1), s.Txn(2)

	if got := s.Before(t2.Ops, p).String(); got != "r2(a, 0), w2(d, 0)" {
		t.Errorf("before(T2, p, S) = %q", got)
	}
	if got := s.After(t1.Ops, p).String(); got != "r1(c, 5), w1(b, 5)" {
		t.Errorf("after(T1, p, S) = %q", got)
	}
	if got := s.Before(t1.Ops, p).String(); got != "r1(a, 0)" {
		t.Errorf("before(T1, p, S) = %q", got)
	}
	if got := s.After(t2.Ops, p); !got.Empty() {
		t.Errorf("after(T2, p, S) = %v, want ε", got)
	}
}

func TestBeforeIncludesPWhenInSeq(t *testing.T) {
	s := example1Schedule()
	p := s.Op(2) // w2(d,0) belongs to T2
	before := s.Before(s.Txn(2).Ops, p)
	if !before.Contains(p) {
		t.Error("before(seq, p, S) must include p when p ∈ seq")
	}
	// p does not belong to T1: strictly-preceding only.
	before1 := s.Before(s.Txn(1).Ops, p)
	if before1.Contains(p) {
		t.Error("before(T1, p, S) must not include p")
	}
}

func TestDepth(t *testing.T) {
	// Example 1: if p = w2(d, 0), depth(p, S) = 2.
	s := example1Schedule()
	if got := s.Depth(s.Op(2)); got != 2 {
		t.Errorf("depth = %d, want 2", got)
	}
	if got := s.Depth(s.Op(0)); got != 0 {
		t.Errorf("depth of first op = %d", got)
	}
	// Depth within a restriction counts only restricted ops.
	sac := s.Restrict(state.NewItemSet("a", "c"))
	if got := sac.Depth(s.Op(3)); got != 2 {
		t.Errorf("depth in S^{a,c} = %d, want 2", got)
	}
}

func TestReadsFrom(t *testing.T) {
	s := NewSchedule(
		W(1, "a", 1),
		R(2, "a", 1),
		W(3, "a", 2),
		R(4, "a", 2),
	)
	if w, ok := s.ReadsFrom(1); !ok || w.Txn != 1 {
		t.Errorf("op1 reads from %v, %v", w, ok)
	}
	if w, ok := s.ReadsFrom(3); !ok || w.Txn != 3 {
		t.Errorf("op3 reads from %v, %v (must be latest write)", w, ok)
	}
	// A read with no preceding write reads the initial state.
	s2 := NewSchedule(R(1, "a", 0))
	if _, ok := s2.ReadsFrom(0); ok {
		t.Error("read of initial state reported a reads-from writer")
	}
}

func TestReadsFromPairsSkipsSelf(t *testing.T) {
	// Within-transaction pairs are not part of the reads-from relation
	// we track (the discipline forbids them anyway).
	s := NewSchedule(W(1, "a", 1), R(2, "a", 1), W(2, "b", 2), R(3, "b", 2))
	pairs := s.ReadsFromPairs()
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
	if pairs[0][0].Txn != 1 || pairs[0][1].Txn != 2 {
		t.Errorf("pair 0 = %v", pairs[0])
	}
}

func TestDelayedRead(t *testing.T) {
	// DR: T2 reads a from T1 only after T1 has finished.
	dr := NewSchedule(
		W(1, "a", 1),
		W(1, "b", 2), // T1 complete
		R(2, "a", 1),
	)
	if !dr.IsDelayedRead() {
		t.Error("schedule should be DR")
	}
	// Not DR: T2 reads a while T1 still has an op left.
	notDR := NewSchedule(
		W(1, "a", 1),
		R(2, "a", 1),
		W(1, "b", 2),
	)
	if notDR.IsDelayedRead() {
		t.Error("schedule should NOT be DR")
	}
	v := notDR.FirstDRViolation()
	if v == nil || v[0].Txn != 1 || v[1].Txn != 2 {
		t.Errorf("violation = %v", v)
	}
}

func TestDRAllowsOverwrittenEarlyRead(t *testing.T) {
	// §3.2: Ti may read an item x written by incomplete Tj if a
	// completed Tk overwrote x in between — the read is from Tk.
	s := NewSchedule(
		W(1, "x", 1), // T1 writes x, still incomplete
		W(2, "x", 2), // T2 overwrites x
		W(2, "y", 0), // T2 completes
		R(3, "x", 2), // T3 reads from completed T2: fine
		W(1, "z", 9), // T1 completes at the end
	)
	if !s.IsDelayedRead() {
		t.Error("read from completed overwriter should keep the schedule DR")
	}
}

func TestExample2ScheduleIsDR(t *testing.T) {
	// Example 2's schedule: w1(a,1), r2(a,1), r2(b,-1), w2(c,-1), r1(c,-1).
	// T2 reads a from T1 while T1 is still running -> not DR.
	s := NewSchedule(
		W(1, "a", 1),
		R(2, "a", 1),
		R(2, "b", -1),
		W(2, "c", -1),
		R(1, "c", -1),
	)
	if s.IsDelayedRead() {
		t.Error("Example 2's schedule must not be DR (T2 reads from running T1)")
	}
}

func TestCompletedBy(t *testing.T) {
	s := example1Schedule()
	p := s.Op(2) // w2(d,0) is T2's last op
	if !s.CompletedBy(2, p) {
		t.Error("T2 should be complete at p")
	}
	if s.CompletedBy(1, p) {
		t.Error("T1 should not be complete at p")
	}
}

func TestValidateOrderEmbedding(t *testing.T) {
	if err := example1Schedule().ValidateOrderEmbedding(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	// Discipline violation: T1 reads b twice.
	bad := NewSchedule(R(1, "b", 0), R(1, "b", 0))
	if err := bad.ValidateOrderEmbedding(); err == nil {
		t.Error("double read accepted")
	}
}

func TestConsistentValuesDetectsMismatch(t *testing.T) {
	s := NewSchedule(W(1, "a", 1), R(2, "a", 99))
	if err := s.ConsistentValues(state.Ints(map[string]int64{"a": 0})); err == nil {
		t.Error("mismatched read value accepted")
	}
	s2 := NewSchedule(R(1, "zz", 0))
	if err := s2.ConsistentValues(state.NewDB()); err == nil {
		t.Error("read of unassigned item accepted")
	}
}

func TestTransactionValidation(t *testing.T) {
	if _, err := NewTransaction(1, R(2, "a", 0)); err == nil {
		t.Error("foreign op accepted")
	}
	tr := MustTransaction(1, R(1, "a", 0), W(1, "a", 1))
	if err := tr.ValidateDiscipline(); err != nil {
		t.Errorf("read-then-write of same item should be legal: %v", err)
	}
	bad := MustTransaction(1, W(1, "a", 1), R(1, "a", 1))
	if err := bad.ValidateDiscipline(); err == nil {
		t.Error("read-after-write accepted")
	}
	bad2 := MustTransaction(1, W(1, "a", 1), W(1, "a", 2))
	if err := bad2.ValidateDiscipline(); err == nil {
		t.Error("double write accepted")
	}
}

func TestTransactionApplyAndLastPos(t *testing.T) {
	s := example1Schedule()
	t1 := s.Txn(1)
	if t1.LastPos() != 4 {
		t.Errorf("LastPos = %d", t1.LastPos())
	}
	var empty Transaction
	if empty.LastPos() != -1 || !empty.Empty() {
		t.Error("empty transaction wrong")
	}
	got := t1.Apply(state.Ints(map[string]int64{"a": 0, "b": 10}))
	if !got.Equal(state.Ints(map[string]int64{"a": 0, "b": 5})) {
		t.Errorf("Apply = %v", got)
	}
}

func TestScheduleString(t *testing.T) {
	s := NewSchedule(R(1, "a", 0))
	if s.String() != "S: r1(a, 0)" {
		t.Errorf("String = %q", s.String())
	}
}

func TestRestrictAllMatchesRestrict(t *testing.T) {
	s := NewSchedule(
		R(1, "a", 0), W(2, "b", 1), R(1, "c", 2), W(1, "a", 3),
		R(2, "a", 3), W(2, "c", 4), R(3, "z", 0),
	)
	ds := []state.ItemSet{
		state.NewItemSet("a", "b"),
		state.NewItemSet("c"),
		state.NewItemSet(),                   // empty set
		state.NewItemSet("a", "b", "c", "z"), // covers everything
		state.NewItemSet("a", "c"),           // overlaps both
	}
	projs := s.RestrictAll(ds)
	if len(projs) != len(ds) {
		t.Fatalf("projections = %d", len(projs))
	}
	for e, d := range ds {
		want := s.Restrict(d)
		if projs[e].String() != want.String() {
			t.Errorf("set %d: RestrictAll %v vs Restrict %v", e, projs[e], want)
		}
		// Positions must be the original schedule positions.
		for _, o := range projs[e].Ops() {
			if !o.Same(s.Op(o.Pos)) {
				t.Errorf("set %d: op %v lost its schedule position", e, o)
			}
		}
	}
}

func TestRestrictSharingIsReadOnlySafe(t *testing.T) {
	s := NewSchedule(R(1, "a", 0), W(2, "a", 1))
	all := s.Restrict(state.NewItemSet("a"))
	// Appending to a full-coverage restriction must not clobber the
	// original schedule's backing array.
	ops := append(all.Ops(), W(9, "q", 9))
	_ = ops
	if s.Op(1).Txn != 2 || s.Len() != 2 {
		t.Fatal("original schedule mutated through shared restriction")
	}
}

// TestAdoptSchedule: the schedule is the caller's slice, not a copy, for
// a recorder that numbered its operations as it appended them, and is
// clipped so that appending through Ops cannot reach the recorder's
// spare capacity.
func TestAdoptSchedule(t *testing.T) {
	buf := make([]Op, 0, 8)
	for i, o := range []Op{R(1, "a", 0), W(2, "a", 1), W(1, "b", 2)} {
		o.Pos = i
		buf = append(buf, o)
	}
	s := AdoptSchedule(buf)
	if got, want := s.String(), NewSchedule(buf...).String(); got != want {
		t.Fatalf("adopted schedule = %s, want %s", got, want)
	}
	ops := s.Ops()
	if &ops[0] != &buf[0] {
		t.Fatal("AdoptSchedule copied the operations")
	}
	if len(ops) != 3 || cap(ops) != 3 {
		t.Fatalf("adopted %d operations with capacity %d, want 3 and 3", len(ops), cap(ops))
	}
	if grown := append(ops, R(3, "c", 0)); &grown[0] == &buf[0] {
		t.Fatal("an append through the schedule wrote into the recorder's buffer")
	}
}
