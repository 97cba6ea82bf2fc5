package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/txn"
)

// probeMonitor abstracts the monitor variants the admissibility
// differential drives in lockstep.
type probeMonitor interface {
	Observe(o txn.Op) *core.Violation
	Admissible(o txn.Op) bool
	Retract(txnID int)
	Commit(txnID int)
	Compact() int
	Ops() int
	PWSR() bool
	ConflictEdges(e int) [][2]int
}

// TestAdmissibleShardedDifferential drives a Monitor and
// ShardedMonitors at 1, 2, 4 and 8 shards in lockstep over random
// Observe/Retract/Commit/Compact interleavings: every Admissible probe
// must answer identically on all of them, a re-probe must repeat the
// verdict, and probing must not perturb subsequent verdicts (final op
// counts and conflict edges stay lockstep-equal).
func TestAdmissibleShardedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	deniedProbes, retracts, compacts := 0, 0, 0
	for trial := 0; trial < 120; trial++ {
		nItems := 2 + rng.Intn(5)
		items := make([]string, nItems)
		for i := range items {
			items[i] = fmt.Sprintf("x%d", i)
		}
		partition := randomPartition(rng, items, trial%3 == 0)
		nTxns := 2 + rng.Intn(5)

		mons := []probeMonitor{core.NewMonitor(partition)}
		for _, shards := range []int{1, 2, 4, 8} {
			mons = append(mons, core.NewShardedMonitor(partition, shards))
		}

		committed := make(map[int]bool)
		live := make(map[int]bool)
		randOp := func(id int) txn.Op {
			entity := items[rng.Intn(len(items))]
			if rng.Intn(2) == 0 {
				return txn.R(id, entity, 0)
			}
			return txn.W(id, entity, 0)
		}
		steps := 40 + rng.Intn(120)
		for step := 0; step < steps && mons[0].PWSR(); step++ {
			// Probe a random operation (committed transactions included:
			// Admissible has no lifecycle restriction) on every monitor
			// and demand identical verdicts.
			if rng.Intn(2) == 0 {
				o := randOp(1 + rng.Intn(nTxns))
				want := mons[0].Admissible(o)
				for i, m := range mons[1:] {
					if got := m.Admissible(o); got != want {
						t.Fatalf("trial %d step %d: monitor %d says Admissible(%v)=%v, Monitor says %v",
							trial, step, i+1, o, got, want)
					}
				}
				// Probe twice: a re-probe must repeat the verdict.
				if again := mons[0].Admissible(o); again != want {
					t.Fatalf("trial %d step %d: verdict flipped on re-probe of %v", trial, step, o)
				}
				if !want {
					deniedProbes++
				}
			}
			id := 1 + rng.Intn(nTxns)
			switch r := rng.Intn(10); {
			case r < 6: // observe
				if committed[id] {
					break
				}
				o := randOp(id)
				want := mons[0].Observe(o)
				live[id] = true
				for i, m := range mons[1:] {
					got := m.Observe(o)
					if (got == nil) != (want == nil) {
						t.Fatalf("trial %d step %d: monitor %d Observe(%v)=%v, Monitor=%v",
							trial, step, i+1, o, got, want)
					}
				}
			case r < 8: // retract a live, uncommitted transaction
				if committed[id] || !mons[0].PWSR() {
					break
				}
				for _, m := range mons {
					m.Retract(id)
				}
				delete(live, id)
				retracts++
			case r < 9: // commit
				if !mons[0].PWSR() {
					break
				}
				for _, m := range mons {
					m.Commit(id)
				}
				committed[id] = true
				delete(live, id)
			default: // explicit compaction pass
				if !mons[0].PWSR() {
					break
				}
				for _, m := range mons {
					m.Compact()
				}
				compacts++
			}
		}
		// The interleaving must not have desynchronized the monitors:
		// op counts and (pre-violation) conflict edges stay equal.
		for i, m := range mons[1:] {
			if m.Ops() != mons[0].Ops() {
				t.Fatalf("trial %d: monitor %d has %d ops, Monitor has %d", trial, i+1, m.Ops(), mons[0].Ops())
			}
		}
		if mons[0].PWSR() {
			for e := range partition {
				want := fmt.Sprint(mons[0].ConflictEdges(e))
				for i, m := range mons[1:] {
					if got := fmt.Sprint(m.ConflictEdges(e)); got != want {
						t.Fatalf("trial %d conjunct %d: monitor %d edges %s, Monitor %s", trial, e, i+1, got, want)
					}
				}
			}
		}
	}
	if deniedProbes == 0 {
		t.Fatal("vacuous: no denied probes generated")
	}
	if retracts == 0 || compacts == 0 {
		t.Fatalf("vacuous: retracts=%d compacts=%d", retracts, compacts)
	}
}
