package txn

import (
	"fmt"
	"sort"

	"pwsr/internal/state"
)

// Schedule is S = (τS, OS): a finite set of transactions together with a
// total order on all their operations that embeds every transaction's
// own order. Ops carry their position in the total order.
type Schedule struct {
	ops Seq
}

// NewSchedule builds a schedule from operations given in schedule order,
// assigning positions 0..n-1.
func NewSchedule(ops ...Op) *Schedule {
	s := &Schedule{ops: make(Seq, len(ops))}
	for i, o := range ops {
		o.Pos = i
		s.ops[i] = o
	}
	return s
}

// AdoptSchedule makes a schedule of ops without copying them: the caller
// gives the slice up, and every operation must already carry its index
// as its position — what a recorder that numbers operations as it
// appends them holds when it is done. The slice is clipped to its
// length, so no append through the schedule reaches the caller's spare
// capacity.
func AdoptSchedule(ops []Op) *Schedule {
	return &Schedule{ops: ops[:len(ops):len(ops)]}
}

// FromSeq builds a schedule from a Seq, reassigning positions.
func FromSeq(ops Seq) *Schedule { return NewSchedule(ops...) }

// Ops returns the schedule's operations in order. The slice is shared;
// callers must not mutate it.
func (s *Schedule) Ops() Seq { return s.ops }

// Len returns the number of operations.
func (s *Schedule) Len() int { return len(s.ops) }

// Op returns the operation at position i.
func (s *Schedule) Op(i int) Op { return s.ops[i] }

// TxnIDs returns the ids of the transactions in τS, ascending.
func (s *Schedule) TxnIDs() []int {
	seen := map[int]bool{}
	var ids []int
	for _, o := range s.ops {
		if !seen[o.Txn] {
			seen[o.Txn] = true
			ids = append(ids, o.Txn)
		}
	}
	sort.Ints(ids)
	return ids
}

// Txn returns the transaction with the given id (its operations in
// schedule order, keeping schedule positions).
func (s *Schedule) Txn(id int) Transaction {
	return Transaction{ID: id, Ops: s.ops.OfTxn(id)}
}

// Transactions returns τS as a slice ordered by transaction id.
func (s *Schedule) Transactions() []Transaction {
	ids := s.TxnIDs()
	out := make([]Transaction, len(ids))
	for i, id := range ids {
		out[i] = s.Txn(id)
	}
	return out
}

// Restrict returns S^d as a schedule view: the subsequence of operations
// on items in d. Operations keep their positions in the original
// schedule, so before/after/depth computations against the original
// order remain valid on the restriction. When d covers every operation
// the view shares the schedule's operation slice (read-only, like Ops).
func (s *Schedule) Restrict(d state.ItemSet) *Schedule {
	return &Schedule{ops: s.ops.Restrict(d)}
}

// RestrictAll returns the projections S^d for every set of ds in a
// single pass over the schedule. Conjunct membership is resolved once
// per distinct entity and each projection is preallocated exactly, so
// the cost is O(n·m + i·l) — n ops, m the mean number of sets
// containing an op's item, i distinct items, l sets — instead of the
// l·n of calling Restrict per set. Projections whose set covers every
// operation share the schedule's operation slice (read-only).
func (s *Schedule) RestrictAll(ds []state.ItemSet) []*Schedule {
	member := make(map[string][]int32, 16)
	perOp := make([][]int32, len(s.ops))
	counts := make([]int, len(ds))
	for i := range s.ops {
		entity := s.ops[i].Entity
		ms, ok := member[entity]
		if !ok {
			for e, d := range ds {
				if d.Contains(entity) {
					ms = append(ms, int32(e))
				}
			}
			member[entity] = ms
		}
		perOp[i] = ms
		for _, e := range ms {
			counts[e]++
		}
	}
	out := make([]*Schedule, len(ds))
	bufs := make([]Seq, len(ds))
	for e := range ds {
		if counts[e] == len(s.ops) {
			out[e] = &Schedule{ops: s.ops[:len(s.ops):len(s.ops)]}
		} else {
			bufs[e] = make(Seq, 0, counts[e])
		}
	}
	for i := range s.ops {
		for _, e := range perOp[i] {
			if out[e] == nil {
				bufs[e] = append(bufs[e], s.ops[i])
			}
		}
	}
	for e := range ds {
		if out[e] == nil {
			out[e] = &Schedule{ops: bufs[e]}
		}
	}
	return out
}

// Before implements before(seq, p, S): the subsequence of seq of
// operations that strictly precede p in S, plus p itself if p belongs to
// seq.
func (s *Schedule) Before(seq Seq, p Op) Seq {
	var out Seq
	for _, o := range seq {
		if o.Pos < p.Pos || o.Same(p) {
			out = append(out, o)
		}
	}
	return out
}

// After implements after(seq, p, S): the operations of seq not in
// before(seq, p, S).
func (s *Schedule) After(seq Seq, p Op) Seq {
	var out Seq
	for _, o := range seq {
		if !(o.Pos < p.Pos || o.Same(p)) {
			out = append(out, o)
		}
	}
	return out
}

// Depth returns depth(p, S): the number of operations preceding p (not
// including p) in this schedule.
func (s *Schedule) Depth(p Op) int {
	n := 0
	for _, o := range s.ops {
		if o.Pos < p.Pos {
			n++
		}
	}
	return n
}

// ReadsFrom returns the write operation that the read operation at
// position j reads from: the latest write on the same entity preceding
// it with no intervening write. The boolean is false when the read takes
// its value from the initial database state.
func (s *Schedule) ReadsFrom(j int) (Op, bool) {
	rd := s.ops[j]
	for i := j - 1; i >= 0; i-- {
		o := s.ops[i]
		if o.Action == ActionWrite && o.Entity == rd.Entity {
			return o, true
		}
	}
	return Op{}, false
}

// ReadsFromPairs returns every (writer op, reader op) pair of the
// schedule's reads-from relation, in reader order. Reads from the
// initial state are omitted, as are pairs within a single transaction.
func (s *Schedule) ReadsFromPairs() [][2]Op {
	var out [][2]Op
	for j, o := range s.ops {
		if o.Action != ActionRead {
			continue
		}
		if w, ok := s.ReadsFrom(j); ok && w.Txn != o.Txn {
			out = append(out, [2]Op{w, o})
		}
	}
	return out
}

// IsDelayedRead reports whether the schedule is DR (Definition 5): for
// every reads-from pair (oi ∈ T1, oj ∈ T2), after(T1, oj, S) is empty —
// i.e. a transaction never reads a value written by a transaction that
// has not yet completed all its operations.
func (s *Schedule) IsDelayedRead() bool {
	return s.FirstDRViolation() == nil
}

// FirstDRViolation returns the first reads-from pair violating the DR
// condition, or nil if the schedule is DR. The pair is (writer, reader).
func (s *Schedule) FirstDRViolation() []Op {
	for _, pr := range s.ReadsFromPairs() {
		w, r := pr[0], pr[1]
		writer := s.Txn(w.Txn)
		if !s.After(writer.Ops, r).Empty() {
			return []Op{w, r}
		}
	}
	return nil
}

// FinalState applies the schedule's writes in order to the initial
// state: [DS1] S [DS2].
func (s *Schedule) FinalState(initial state.DB) state.DB {
	out := initial.Clone()
	for _, o := range s.ops {
		if o.Action == ActionWrite {
			out.Set(o.Entity, o.Value)
		}
	}
	return out
}

// CompletedBy reports whether transaction id has completed all its
// operations at or before the point just after operation p.
func (s *Schedule) CompletedBy(id int, p Op) bool {
	t := s.Txn(id)
	return !t.Empty() && t.LastPos() <= p.Pos
}

// ValidateOrderEmbedding verifies O_S embeds each transaction's order:
// positions are strictly increasing within every transaction (trivially
// true for schedules built by NewSchedule) and ValidateDiscipline holds
// for every transaction.
func (s *Schedule) ValidateOrderEmbedding() error {
	for _, t := range s.Transactions() {
		last := -1
		for _, o := range t.Ops {
			if o.Pos <= last {
				return fmt.Errorf("txn %d ops out of order at pos %d", t.ID, o.Pos)
			}
			last = o.Pos
		}
		if err := t.ValidateDiscipline(); err != nil {
			return err
		}
	}
	return nil
}

// ConsistentValues checks that the schedule's read values are the ones
// an execution from the given initial state would actually produce: each
// read returns the last written value, or the initial state's value when
// no write precedes it. This validates hand-written schedules.
func (s *Schedule) ConsistentValues(initial state.DB) error {
	cur := initial.Clone()
	for i, o := range s.ops {
		switch o.Action {
		case ActionRead:
			v, ok := cur.Get(o.Entity)
			if !ok {
				return fmt.Errorf("op %d (%s): item has no value", i, o)
			}
			if !v.Equal(o.Value) {
				return fmt.Errorf("op %d (%s): read value %s, store has %s", i, o, o.Value, v)
			}
		case ActionWrite:
			cur.Set(o.Entity, o.Value)
		}
	}
	return nil
}

// String renders the schedule in the paper's inline notation.
func (s *Schedule) String() string {
	return "S: " + s.ops.String()
}
