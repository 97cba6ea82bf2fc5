package exec_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"pwsr/internal/exec"
	"pwsr/internal/paper"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/state"
)

func TestEnumerateCountsInterleavings(t *testing.T) {
	// Two independent 2-op transactions: C(4,2) = 6 interleavings.
	cfg := exec.Config{
		Programs: map[int]*program.Program{
			1: program.MustParse(`program A { x := x + 1; }`), // r, w
			2: program.MustParse(`program B { y := y + 1; }`), // r, w
		},
		Initial: state.Ints(map[string]int64{"x": 0, "y": 0}),
	}
	seen := map[string]bool{}
	n, err := exec.Enumerate(cfg, 0, func(script []int, res *exec.Result) error {
		seen[res.Schedule.Ops().String()] = true
		if len(script) != 4 {
			t.Fatalf("script = %v", script)
		}
		if err := res.Schedule.ConsistentValues(state.Ints(map[string]int64{"x": 0, "y": 0})); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("interleavings = %d, want 6", n)
	}
	if len(seen) != 6 {
		t.Fatalf("distinct schedules = %d, want 6", len(seen))
	}
}

func TestEnumerateBranchDependentPrograms(t *testing.T) {
	// The second program's op count depends on what it reads: the tree
	// has paths of different lengths.
	cfg := exec.Config{
		Programs: map[int]*program.Program{
			1: program.MustParse(`program W { a := 1; }`),
			2: program.MustParse(`program R { if (a > 0) { b := 1; } }`),
		},
		Initial: state.Ints(map[string]int64{"a": 0, "b": 0}),
	}
	lengths := map[int]int{}
	n, err := exec.Enumerate(cfg, 0, func(script []int, res *exec.Result) error {
		lengths[res.Schedule.Len()]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no interleavings")
	}
	// Reading a before the write (a=0) skips the branch: 2 ops total;
	// reading after: 3 ops.
	if lengths[2] == 0 || lengths[3] == 0 {
		t.Fatalf("path lengths = %v, want both 2- and 3-op paths", lengths)
	}
}

func TestEnumerateLimit(t *testing.T) {
	cfg := exec.Config{
		Programs: map[int]*program.Program{
			1: program.MustParse(`program A { x := x + 1; }`),
			2: program.MustParse(`program B { y := y + 1; }`),
		},
		Initial: state.Ints(map[string]int64{"x": 0, "y": 0}),
	}
	_, err := exec.Enumerate(cfg, 3, func([]int, *exec.Result) error { return nil })
	if !errors.Is(err, exec.ErrEnumLimit) {
		t.Fatalf("err = %v, want ErrEnumLimit", err)
	}
}

func TestEnumerateVisitErrorAborts(t *testing.T) {
	cfg := exec.Config{
		Programs: map[int]*program.Program{
			1: program.MustParse(`program A { x := 1; }`),
		},
		Initial: state.Ints(map[string]int64{"x": 0}),
	}
	boom := errors.New("boom")
	if _, err := exec.Enumerate(cfg, 0, func([]int, *exec.Result) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestEnumerateDeterministic(t *testing.T) {
	cfg := exec.Config{
		Programs: map[int]*program.Program{
			1: program.MustParse(`program A { x := y; }`),
			2: program.MustParse(`program B { y := x; }`),
		},
		Initial: state.Ints(map[string]int64{"x": 1, "y": 2}),
	}
	collect := func() []string {
		var out []string
		_, err := exec.Enumerate(cfg, 0, func(script []int, res *exec.Result) error {
			out = append(out, res.Schedule.Ops().String())
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d", i)
		}
	}
}

// TestEnumerateExample5AscendingReplayable walks every interleaving of
// Example 5's three programs: the scripts arrive in strictly ascending
// order, and each one, replayed through a Script policy, reproduces the
// schedule it was visited with.
func TestEnumerateExample5AscendingReplayable(t *testing.T) {
	e := paper.Example5()
	programs := map[int]*program.Program{1: e.Programs[0], 2: e.Programs[1], 3: e.Programs[2]}
	var prev []int
	n, err := exec.Enumerate(exec.Config{Programs: programs, Initial: e.Initial}, 0, func(script []int, res *exec.Result) error {
		if prev != nil && slices.Compare(prev, script) >= 0 {
			t.Fatalf("script %v after %v: not ascending", script, prev)
		}
		prev = script
		replay, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: programs, Initial: e.Initial, Policy: sched.NewScript(script...),
		})
		if err != nil {
			return err
		}
		if got, want := replay.Schedule.Ops().String(), res.Schedule.Ops().String(); got != want {
			t.Fatalf("script %v replays to %s, enumerated %s", script, got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 560 {
		t.Fatalf("interleavings = %d, want 560", n)
	}
}
