package sched

import (
	"context"
	"testing"

	"pwsr/internal/exec"
	"pwsr/internal/program"
	"pwsr/internal/state"
)

func stateInt(v int64) state.Value { return state.Int(v) }

// NeverAbort is the victim policy of a gate that never aborts: it
// declines every stall, so a run stalls (exec.ErrStall) where nothing
// is admissible. Exported for the external test package.
func NeverAbort([]*exec.Request, []int, *exec.View) int { return -1 }

// mustPrograms builds two transactions contending on an item u that
// belongs to no conjunct data set.
func mustPrograms(t *testing.T) map[int]*program.Program {
	t.Helper()
	return map[int]*program.Program{
		1: program.MustParse(`program A { u := u + 1; x := x + 1; }`),
		2: program.MustParse(`program B { u := u + 2; }`),
	}
}

// runPW executes the contending programs under the given PW2PL
// instance with x in the only data set and u unconstrained.
func runPW(t *testing.T, p *PW2PL, programs map[int]*program.Program) (*exec.Result, error) {
	t.Helper()
	return exec.RunCtx(context.Background(), exec.Config{
		Programs: programs,
		Initial:  state.Ints(map[string]int64{"u": 0, "x": 0}),
		Policy:   p,
		DataSets: []state.ItemSet{state.NewItemSet("x")},
	})
}
