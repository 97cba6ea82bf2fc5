package exec_test

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"pwsr/internal/exec"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// slotAudit is a gate over round-robin that stalls every fifth Pick,
// sacrificing the newest pending transaction whose abort closure holds,
// and audits every request it is shown against the run's ids.
type slotAudit struct {
	nopGate
	t       *testing.T
	initial state.DB
	rr      sched.RoundRobin
	rank    map[int]int // id → its index among the run's ids, ascending
	seen    map[int]int // id → the slot its first request carried
	picks   int
	victims int
	closed  int // AbortClosure answers compared, across every Pick and Victim
	cascade int // of them, closures holding more than the victim
}

func (a *slotAudit) check(pending []*exec.Request, v *exec.View) {
	a.t.Helper()
	slots := make(map[int]int, len(pending))
	for _, r := range pending {
		if other, dup := slots[r.Slot]; dup {
			a.t.Fatalf("T%d and T%d share slot %d", other, r.TxnID, r.Slot)
		}
		slots[r.Slot] = r.TxnID
		if r.Slot != a.rank[r.TxnID] {
			a.t.Fatalf("T%d carries slot %d, want its rank %d", r.TxnID, r.Slot, a.rank[r.TxnID])
		}
		if s, ok := a.seen[r.TxnID]; ok && s != r.Slot {
			a.t.Fatalf("T%d moved from slot %d to %d", r.TxnID, s, r.Slot)
		}
		a.seen[r.TxnID] = r.Slot
	}
	checkOpIndex(a.t, v)
	checkViewReplay(a.t, v, a.initial, pending)
	for id := range a.rank {
		wantClosure, wantOK := referenceClosure(v, id)
		closure, ok := v.AbortClosure(id)
		if ok != wantOK || (ok && !slices.Equal(closure, wantClosure)) {
			a.t.Fatalf("AbortClosure(%d) = %v, %v; the schedule says %v, %v\n%v", id, closure, ok, wantClosure, wantOK, v.Ops)
		}
		a.closed++
		if len(closure) > 1 {
			a.cascade++
		}
	}
}

// referenceClosure recomputes View.AbortClosure from v.Ops: a read's
// writer is the item's last writer before it, and a member's live readers
// join the closure, a finished one pins it.
func referenceClosure(v *exec.View, id int) ([]int, bool) {
	if !v.Live[id] {
		return nil, false
	}
	readers := make(map[int][]int)
	last := make(map[string]int)
	for _, o := range v.Ops {
		if o.Action == txn.ActionWrite {
			last[o.Entity] = o.Txn
		} else if w := last[o.Entity]; w != 0 && w != o.Txn && !slices.Contains(readers[w], o.Txn) {
			readers[w] = append(readers[w], o.Txn)
		}
	}
	closure := []int{id}
	for i := 0; i < len(closure); i++ {
		for _, r := range readers[closure[i]] {
			if v.Finished[r] {
				return nil, false
			}
			if !slices.Contains(closure, r) {
				closure = append(closure, r)
			}
		}
	}
	sort.Ints(closure)
	return closure, true
}

func (a *slotAudit) Pick(pending []*exec.Request, v *exec.View) int {
	a.check(pending, v)
	a.picks++
	if a.picks%5 == 0 {
		return -1
	}
	return a.rr.Pick(pending, v)
}

func (a *slotAudit) Victim(pending []*exec.Request, v *exec.View) int {
	a.check(pending, v)
	for i := len(pending) - 1; i >= 0; i-- {
		if _, ok := v.AbortClosure(pending[i].TxnID); ok {
			a.victims++
			return i
		}
	}
	return -1
}

func (a *slotAudit) TxnFinished(id int, v *exec.View) {}

// TestRequestSlots pins Request.Slot's contract on contiguous and on
// sparse ids, under a gate that aborts: the requests of one Pick or
// Victim carry distinct slots, each the id's rank among the run's ids,
// fixed across the attempt's requests and its restarts; and FirstOp,
// OpCount and AbortClosure — the View's slot-indexed lookups, direct for
// contiguous ids and by search otherwise — agree with a recomputation
// from the schedule.
func TestRequestSlots(t *testing.T) {
	for _, ids := range [][]int{{1, 2, 3, 4, 5, 6, 7, 8}, {3, 7, 8, 20, 41}} {
		t.Run(fmt.Sprint(ids), func(t *testing.T) {
			programs := make(map[int]*program.Program, len(ids))
			initial := state.Ints(map[string]int64{"a": 0, "b": 0, "c": 0})
			a := &slotAudit{t: t, initial: initial, rank: make(map[int]int), seen: make(map[int]int)}
			for i, id := range ids {
				programs[id] = program.MustParse(fmt.Sprintf("program T%d { let t := %c; %c := t + %d; c := c + 1; }", id, 'a'+id%2, 'b'-id%2, id))
				a.rank[id] = i
			}
			res, err := exec.RunCtx(context.Background(), exec.Config{Programs: programs, Initial: initial, Policy: a, MaxAborts: 64})
			if err != nil {
				t.Fatal(err)
			}
			if a.victims == 0 || res.Metrics.Aborts < a.victims {
				t.Fatalf("vacuous: %d victims, %d aborts", a.victims, res.Metrics.Aborts)
			}
			if len(a.seen) != len(ids) || a.cascade == 0 {
				t.Fatalf("vacuous: saw %d of %d transactions, compared %d closures, %d of them cascading", len(a.seen), len(ids), a.closed, a.cascade)
			}
			if err := res.Schedule.ConsistentValues(initial); err != nil {
				t.Fatalf("schedule does not replay: %v\n%s", err, res.Schedule)
			}
		})
	}
}
