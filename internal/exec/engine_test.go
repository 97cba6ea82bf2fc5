package exec_test

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"pwsr/internal/constraint"
	"pwsr/internal/exec"
	"pwsr/internal/paper"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/state"
)

// runExample executes a paper example's programs under its script and
// returns the result.
func runExample(t *testing.T, e *paper.Example) *exec.Result {
	t.Helper()
	programs := make(map[int]*program.Program, len(e.Programs))
	for i, p := range e.Programs {
		programs[i+1] = p
	}
	res, err := exec.Run(exec.Config{
		Programs: programs,
		Initial:  e.Initial,
		Policy:   sched.NewScript(e.Script...),
	})
	if err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	return res
}

func TestEngineReproducesExample1(t *testing.T) {
	e := paper.Example1()
	res := runExample(t, e)
	if res.Schedule.Ops().String() != e.Schedule.Ops().String() {
		t.Fatalf("schedule = %s\nwant %s", res.Schedule, e.Schedule)
	}
	if !res.Final.Equal(e.Final) {
		t.Fatalf("final = %v, want %v", res.Final, e.Final)
	}
}

func TestEngineReproducesExample2(t *testing.T) {
	e := paper.Example2()
	res := runExample(t, e)
	if res.Schedule.Ops().String() != e.Schedule.Ops().String() {
		t.Fatalf("schedule = %s\nwant %s", res.Schedule, e.Schedule)
	}
	if !res.Final.Equal(e.Final) {
		t.Fatalf("final = %v, want %v", res.Final, e.Final)
	}
}

func TestEngineReproducesExample5(t *testing.T) {
	e := paper.Example5()
	res := runExample(t, e)
	if res.Schedule.Ops().String() != e.Schedule.Ops().String() {
		t.Fatalf("schedule = %s\nwant %s", res.Schedule, e.Schedule)
	}
	if !res.Final.Equal(e.Final) {
		t.Fatalf("final = %v, want %v", res.Final, e.Final)
	}
}

func TestEngineExample2FixedDiverges(t *testing.T) {
	// Under TP1' the same grant prefix produces a different schedule:
	// the else branch still accesses b.
	e := paper.Example2Fixed()
	res := runExample(t, e)
	// TP1' emits r1(b, …) and w1(b, …) after reading c < 0.
	last := res.Schedule.Op(res.Schedule.Len() - 1)
	if last.Entity != "b" || last.Txn != 1 {
		t.Fatalf("schedule = %s", res.Schedule)
	}
}

func TestEngineDeterministic(t *testing.T) {
	e := paper.Example2()
	a := runExample(t, e).Schedule.Ops().String()
	b := runExample(t, e).Schedule.Ops().String()
	if a != b {
		t.Fatalf("nondeterministic: %s vs %s", a, b)
	}
}

func TestEngineRoundRobin(t *testing.T) {
	programs := map[int]*program.Program{
		1: program.MustParse(`program A { x := x + 1; }`),
		2: program.MustParse(`program B { y := y + 1; }`),
	}
	res, err := exec.Run(exec.Config{
		Programs: programs,
		Initial:  state.Ints(map[string]int64{"x": 0, "y": 0}),
		Policy:   &sched.RoundRobin{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Alternating grants: r1(x), r2(y), w1(x), w2(y).
	if res.Schedule.Ops().String() != "r1(x, 0), r2(y, 0), w1(x, 1), w2(y, 1)" {
		t.Fatalf("schedule = %s", res.Schedule)
	}
}

func TestEngineRandomSeeded(t *testing.T) {
	programs := map[int]*program.Program{
		1: program.MustParse(`program A { x := x + 1; }`),
		2: program.MustParse(`program B { y := y + 1; }`),
	}
	run := func(seed int64) string {
		res, err := exec.Run(exec.Config{
			Programs: programs,
			Initial:  state.Ints(map[string]int64{"x": 0, "y": 0}),
			Policy:   sched.NewRandom(seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Schedule.Ops().String()
	}
	if run(1) != run(1) {
		t.Fatal("same seed produced different schedules")
	}
}

func TestEngineSerialPolicy(t *testing.T) {
	programs := map[int]*program.Program{
		1: program.MustParse(`program A { x := y; }`),
		2: program.MustParse(`program B { y := x; }`),
	}
	res, err := exec.Run(exec.Config{
		Programs: programs,
		Initial:  state.Ints(map[string]int64{"x": 1, "y": 2}),
		Policy:   &sched.Serial{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Ops().String() != "r1(y, 2), w1(x, 2), r2(x, 2), w2(y, 2)" {
		t.Fatalf("schedule = %s", res.Schedule)
	}
}

func TestEngineStallIsError(t *testing.T) {
	programs := map[int]*program.Program{
		1: program.MustParse(`program A { x := 1; }`),
	}
	res, err := exec.Run(exec.Config{
		Programs: programs,
		Initial:  state.Ints(map[string]int64{"x": 0}),
		Policy:   sched.NewScript(2, 2), // wrong ids: nothing grantable
	})
	if !errors.Is(err, exec.ErrStall) {
		t.Fatalf("err = %v (res %v), want ErrStall", err, res)
	}
}

func TestEngineMissingItem(t *testing.T) {
	programs := map[int]*program.Program{
		1: program.MustParse(`program A { x := zz; }`),
	}
	_, err := exec.Run(exec.Config{
		Programs: programs,
		Initial:  state.NewDB(),
		Policy:   &sched.RoundRobin{},
	})
	if err == nil {
		t.Fatal("missing item accepted")
	}
}

func TestEngineProgramError(t *testing.T) {
	// One program fails (double write); the other must be cleanly
	// aborted and Run must return the error.
	programs := map[int]*program.Program{
		1: program.MustParse(`program A { x := 1; x := 2; }`),
		2: program.MustParse(`program B { y := 1; }`),
	}
	_, err := exec.Run(exec.Config{
		Programs: programs,
		Initial:  state.Ints(map[string]int64{"x": 0, "y": 0}),
		Policy:   &sched.RoundRobin{},
	})
	if err == nil {
		t.Fatal("program error not surfaced")
	}
}

func TestEngineNoPrograms(t *testing.T) {
	if _, err := exec.Run(exec.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestEngineMetrics(t *testing.T) {
	e := paper.Example2()
	res := runExample(t, e)
	m := res.Metrics
	if m.Ticks != res.Schedule.Len() {
		t.Fatalf("Ticks = %d, want %d", m.Ticks, res.Schedule.Len())
	}
	if len(m.PerTxn) != 2 {
		t.Fatalf("PerTxn = %v", m.PerTxn)
	}
	t1 := m.PerTxn[1]
	if t1.Ops != 3 { // w1(a), r1(c) … wait: w1(a,1), r1(c,-1) = 2 ops
		// TP1 emits w1(a,1) and r1(c,-1): 2 operations.
		if t1.Ops != 2 {
			t.Fatalf("T1 ops = %d", t1.Ops)
		}
	}
	if t1.Turnaround() <= 0 {
		t.Fatalf("T1 turnaround = %d", t1.Turnaround())
	}
	total := 0
	for _, tm := range m.PerTxn {
		total += tm.Waits
	}
	if total != m.Waits {
		t.Fatalf("wait accounting: %d vs %d", total, m.Waits)
	}
}

func TestEngineValuesConsistent(t *testing.T) {
	// Whatever the interleaving, the recorded schedule's values must
	// replay against the initial state.
	for seed := int64(0); seed < 10; seed++ {
		programs := map[int]*program.Program{
			1: program.MustParse(`program A { x := y + 1; }`),
			2: program.MustParse(`program B { y := x + 1; }`),
			3: program.MustParse(`program C { z := x + y; }`),
		}
		res, err := exec.Run(exec.Config{
			Programs: programs,
			Initial:  state.Ints(map[string]int64{"x": 0, "y": 0, "z": 0}),
			Policy:   sched.NewRandom(seed),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.ConsistentValues(state.Ints(map[string]int64{"x": 0, "y": 0, "z": 0})); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.Schedule.ValidateOrderEmbedding(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestDeclareAccess(t *testing.T) {
	p := program.MustParse(`program T {
		let temp := c;
		a := temp + b;
		if (d > 0) { e := 1; }
	}`)
	a := exec.DeclareAccess(p)
	if !a.Writes.Equal(state.NewItemSet("a", "e")) {
		t.Fatalf("writes = %v", a.Writes)
	}
	if !a.Reads.Equal(state.NewItemSet("b", "c", "d")) {
		t.Fatalf("reads = %v", a.Reads)
	}
}

// passingPolicy burns n ticks before granting anything, exercising the
// PassTick mechanism directly.
type passingPolicy struct {
	passes int
}

func (p *passingPolicy) Pick(pending []*exec.Request, v *exec.View) int {
	if p.passes > 0 {
		p.passes--
		return exec.PassTick
	}
	return 0
}

func (p *passingPolicy) TxnFinished(int, *exec.View) {}

func TestEnginePassTick(t *testing.T) {
	programs := map[int]*program.Program{
		1: program.MustParse(`program A { x := 1; }`),
	}
	res, err := exec.Run(exec.Config{
		Programs: programs,
		Initial:  state.Ints(map[string]int64{"x": 0}),
		Policy:   &passingPolicy{passes: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One op, plus 5 passed ticks at the first decision point.
	if res.Metrics.Ticks != 6 {
		t.Fatalf("Ticks = %d, want 6", res.Metrics.Ticks)
	}
	if res.Metrics.PerTxn[1].Waits != 5 {
		t.Fatalf("Waits = %d, want 5 (pending through every passed tick)", res.Metrics.PerTxn[1].Waits)
	}
	if res.Schedule.Len() != 1 {
		t.Fatalf("ops = %d", res.Schedule.Len())
	}
}

// goroutineWatch forwards to a policy and records the highest goroutine
// count seen from inside its callbacks, that is, while RunCtx is running.
type goroutineWatch struct {
	exec.Policy
	peak int
}

func (w *goroutineWatch) look() {
	if n := runtime.NumGoroutine(); n > w.peak {
		w.peak = n
	}
}

func (w *goroutineWatch) Pick(pending []*exec.Request, v *exec.View) int {
	w.look()
	return w.Policy.Pick(pending, v)
}

func (w *goroutineWatch) TxnFinished(id int, v *exec.View) {
	w.look()
	w.Policy.TxnFinished(id, v)
}

// restarterWatch is goroutineWatch over a policy that restarts victims.
type restarterWatch struct {
	goroutineWatch
	inner exec.Restarter
}

func (w *restarterWatch) Victim(pending []*exec.Request, v *exec.View) int {
	w.look()
	return w.inner.Victim(pending, v)
}

func (w *restarterWatch) TxnAborted(id int, v *exec.View) {
	w.look()
	w.inner.TxnAborted(id, v)
}

// watchGoroutines wraps pol, keeping it a Restarter when it is one, and
// returns the watch to read the peak from.
func watchGoroutines(pol exec.Policy) (exec.Policy, *goroutineWatch) {
	if ra, ok := pol.(exec.Restarter); ok {
		w := &restarterWatch{goroutineWatch: goroutineWatch{Policy: pol}, inner: ra}
		return w, &w.goroutineWatch
	}
	w := &goroutineWatch{Policy: pol}
	return w, w
}

// errAny marks a test case that must fail, with whatever error.
var errAny = errors.New("any error")

// neverGrant is a blocking policy that grants nothing: a hard stall.
type neverGrant struct{}

func (neverGrant) Pick([]*exec.Request, *exec.View) int { return -1 }
func (neverGrant) TxnFinished(int, *exec.View)          {}

// cancelAfter fires cancel while picking the n-th grant, so the engine
// finds the context dead at its next scheduling step.
type cancelAfter struct {
	exec.Policy
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Pick(pending []*exec.Request, v *exec.View) int {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return c.Policy.Pick(pending, v)
}

// TestRunLeavesNoCoroutines pins that the tick engine starts nothing: an
// attempt is a program.Machine stepped on RunCtx's own stack, so the
// goroutine count never rises above its pre-call value, neither while
// the run is in progress (read from inside every policy callback) nor
// after it, on any exit path. An attempt left suspended when the run
// ends is simply dropped; the canary write at the end of every such
// program must never reach the store.
func TestRunLeavesNoCoroutines(t *testing.T) {
	parse := func(srcs ...string) map[int]*program.Program {
		m := make(map[int]*program.Program, len(srcs))
		for i, src := range srcs {
			m[i+1] = program.MustParse(src)
		}
		return m
	}
	initial := state.Ints(map[string]int64{"x": 1, "y": 0, "z": 0, "q": 0, "canary": 0})
	parked := `program P { q := q + 1; canary := 1; }` // left parked when the run ends
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cases := []struct {
		name     string
		ctx      context.Context
		programs map[int]*program.Program
		policy   exec.Policy
		budget   int
		wantErr  error // nil: success; errAny: any failure
		check    func(t *testing.T, res *exec.Result)
	}{
		{name: "clean finish", programs: parse(`program A { x := x + 1; }`, `program B { y := y + 1; }`),
			policy: &sched.RoundRobin{}},
		{name: "program error", programs: parse(`program A { x := 1; x := 2; canary := 1; }`, parked),
			policy: &sched.RoundRobin{}, wantErr: errAny},
		{name: "hard stall", programs: parse(`program A { x := x + 1; canary := 1; }`, parked),
			policy: neverGrant{}, wantErr: exec.ErrStall},
		{name: "abort budget", programs: parse(`program A { x := x + 1; canary := 1; }`, parked),
			policy: &alwaysAbort{}, budget: 8, wantErr: exec.ErrStall},
		{name: "missing item", programs: parse(`program A { x := nosuch; canary := 1; }`, parked),
			policy: &sched.RoundRobin{}, wantErr: errAny},
		// w1(x), r2(x), w2(y) — T2 finishes having read T1's write, so T1
		// is pinned — then r3(q), whose grant fires the cancel: T3 is
		// erased, T1 retired with its prefix.
		{name: "cancel with an erasable and a pinned transaction", ctx: ctx,
			programs: parse(`program A { x := 5; z := z + 1; canary := 1; }`, `program B { y := x; }`, parked),
			policy:   &cancelAfter{Policy: sched.NewScript(1, 2, 2, 3), n: 4, cancel: cancel}, wantErr: exec.ErrCanceled,
			check: func(t *testing.T, res *exec.Result) {
				if res == nil {
					t.Fatal("cancelled run returned no partial result")
				}
				if got, want := res.Schedule.Ops().String(), "w1(x, 5), r2(x, 5), w2(y, 5)"; got != want {
					t.Fatalf("surviving schedule = %s, want %s", got, want)
				}
				checkSchedulePositions(t, res.Schedule)
				if m := res.Metrics; m.Aborts != 1 || m.PerTxn[3].Aborts != 1 || m.WastedOps != 1 {
					t.Fatalf("metrics = %+v, want T3's one operation erased", m)
				}
				if res.Final.MustGet("canary").AsInt() != 0 {
					t.Fatalf("an unwound program ran on to its canary write: %s", res.Schedule)
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.ctx == nil {
				c.ctx = context.Background()
			}
			policy, watch := watchGoroutines(c.policy)
			before := runtime.NumGoroutine()
			res, err := exec.RunCtx(c.ctx, exec.Config{Programs: c.programs, Initial: initial, Policy: policy, MaxAborts: c.budget})
			if after := runtime.NumGoroutine(); after > before || watch.peak > before {
				t.Fatalf("goroutines: %d before, at most %d during, %d after: the engine started one", before, watch.peak, after)
			}
			if watch.peak == 0 {
				t.Fatal("the policy was never consulted: nothing was watched")
			}
			switch {
			case c.wantErr == nil && err != nil:
				t.Fatal(err)
			case c.wantErr != nil && err == nil:
				t.Fatal("run succeeded, want an error")
			case c.wantErr != nil && c.wantErr != errAny && !errors.Is(err, c.wantErr):
				t.Fatalf("err = %v, want %v", err, c.wantErr)
			}
			if c.check != nil {
				c.check(t, res)
			}
		})
	}
}

// TestProgramPanicSurfacesOnCaller: a panic inside a program happens on
// the caller's own stack — RunCtx is in the panicking goroutine's call
// chain, the caller can recover it, and there is no other attempt's
// goroutine to take down or leave behind.
func TestProgramPanicSurfacesOnCaller(t *testing.T) {
	bad := program.MustParse(`program A { x := x + 1; }`)
	// A typed-nil variable node: evaluating it dereferences nil.
	bad.Body = append(bad.Body, &program.Assign{Target: "y", Expr: (*constraint.Var)(nil)})
	programs := map[int]*program.Program{
		1: bad,
		2: program.MustParse(`program B { z := z + 1; q := q + 1; }`),
	}
	policy, watch := watchGoroutines(&sched.RoundRobin{})
	before := runtime.NumGoroutine()
	var stack string
	recovered := func() (r any) {
		defer func() {
			if r = recover(); r != nil {
				stack = string(debug.Stack())
			}
		}()
		exec.Run(exec.Config{
			Programs: programs,
			Initial:  state.Ints(map[string]int64{"x": 0, "y": 0, "z": 0, "q": 0}),
			Policy:   policy,
		})
		return nil
	}()
	if recovered == nil {
		t.Fatal("the program's panic did not reach the caller")
	}
	if !strings.Contains(stack, "exec.RunCtx") || !strings.Contains(stack, "program.(*Machine).Step") {
		t.Fatalf("the panic did not unwind through RunCtx from the interpreter:\n%s", stack)
	}
	if after := runtime.NumGoroutine(); after > before || watch.peak > before {
		t.Fatalf("goroutines: %d before, at most %d during, %d after the recovered panic", before, watch.peak, after)
	}
}
