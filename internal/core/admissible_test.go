package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/txn"
)

// reaches reports whether the edge list holds a path from x to y.
func reaches(edges [][2]int, x, y int) bool {
	seen := map[int]bool{x: true}
	stack := []int{x}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range edges {
			if e[0] == u && !seen[e[1]] {
				if e[1] == y {
					return true
				}
				seen[e[1]] = true
				stack = append(stack, e[1])
			}
		}
	}
	return false
}

// TestAdmissibleMatchesReference drives a probed Monitor in lockstep
// with a never-probed ReferenceMonitor over random
// Observe/Retract/Commit/Compact interleavings. Every observed
// operation is probed first, and Admissible must answer exactly whether
// the reference then observes it without a violation; stray probes
// (committed transactions included: Admissible has no lifecycle
// restriction) run between the steps, and a re-probe must repeat the
// verdict. Probing must not perturb later verdicts: the final op counts
// agree, and (pre-violation) every Monitor conflict edge is a reference
// edge and every reference edge is a Monitor path — the reference draws
// edges from every historical access where Monitor draws the
// reachability-preserving frontier subset.
func TestAdmissibleMatchesReference(t *testing.T) {
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

		mon := core.NewMonitor(partition)
		ref := core.NewReferenceMonitor(partition)

		committed := make(map[int]bool)
		randOp := func(id int) txn.Op {
			entity := items[rng.Intn(len(items))]
			if rng.Intn(2) == 0 {
				return txn.R(id, entity, 0)
			}
			return txn.W(id, entity, 0)
		}
		probe := func(step int, o txn.Op) bool {
			ok := mon.Admissible(o)
			if again := mon.Admissible(o); again != ok {
				t.Fatalf("trial %d step %d: verdict flipped on re-probe of %v", trial, step, o)
			}
			if !ok {
				deniedProbes++
			}
			return ok
		}
		steps := 40 + rng.Intn(120)
		for step := 0; step < steps && mon.PWSR(); step++ {
			if rng.Intn(2) == 0 {
				probe(step, randOp(1+rng.Intn(nTxns)))
			}
			id := 1 + rng.Intn(nTxns)
			switch r := rng.Intn(10); {
			case r < 6: // observe
				if committed[id] {
					break
				}
				o := randOp(id)
				want := probe(step, o)
				if got := ref.Observe(o) == nil; got != want {
					t.Fatalf("trial %d step %d: Admissible(%v)=%v, reference observes it cleanly: %v",
						trial, step, o, want, got)
				}
				if got := mon.Observe(o) == nil; got != want {
					t.Fatalf("trial %d step %d: Admissible(%v)=%v, Observe clean: %v", trial, step, o, want, got)
				}
			case r < 8: // retract a live, uncommitted transaction
				if committed[id] {
					break
				}
				mon.Retract(id)
				ref.Retract(id)
				retracts++
			case r < 9: // commit
				mon.Commit(id)
				ref.Commit(id)
				committed[id] = true
			default: // explicit compaction pass
				if got, want := mon.Compact(), ref.Compact(); got != want {
					t.Fatalf("trial %d step %d: Compact reclaimed %d, reference %d", trial, step, got, want)
				}
				compacts++
			}
		}
		if mon.Ops() != ref.Ops() {
			t.Fatalf("trial %d: Monitor has %d ops, reference %d", trial, mon.Ops(), ref.Ops())
		}
		if !mon.PWSR() {
			continue
		}
		for e := range partition {
			got, want := mon.ConflictEdges(e), ref.ConflictEdges(e)
			for _, edge := range got {
				if !slices.Contains(want, edge) {
					t.Fatalf("trial %d conjunct %d: Monitor edge %v is not a reference edge %v", trial, e, edge, want)
				}
			}
			for _, edge := range want {
				if !reaches(got, edge[0], edge[1]) {
					t.Fatalf("trial %d conjunct %d: reference edge %v is no Monitor path %v", trial, e, edge, got)
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
