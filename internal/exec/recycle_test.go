package exec_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"pwsr/internal/constraint"
	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// recycleCase is one run shape of TestTickRunsOwnTheirResults. cfg
// builds the run's context and Config, with a policy of its own, every
// time it is called. A concurrent case can also run inside RunManyCtx:
// it neither panics nor cancels its context.
type recycleCase struct {
	name       string
	cfg        func() (context.Context, exec.Config)
	concurrent bool
}

// cancelGateAfter is cancelAfter over a gate whose extensions it keeps.
type cancelGateAfter struct {
	*sched.OptimisticCertify
	n      int
	cancel context.CancelFunc
}

func (c *cancelGateAfter) Pick(pending []*exec.Request, v *exec.View) int {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return c.OptimisticCertify.Pick(pending, v)
}

// recycleCases are runs of every shape a recycled run state meets: a
// large gated round with aborts, a small one, declared readers, a
// cascading abort, a cancelled round, a program error and a program that
// panics mid-run.
func recycleCases() []recycleCase {
	large := gen.MustGenerate(gen.Config{Conjuncts: 2, Programs: 24, MovesPerProgram: 3, Seed: 11})
	small := gen.MustGenerate(gen.Config{Conjuncts: 2, Programs: 3, MovesPerProgram: 2, Seed: 3})
	mixed := gen.MustGenerate(gen.Config{Conjuncts: 2, Programs: 8, MovesPerProgram: 2, Seed: 5})
	items := make([]string, 0, len(mixed.Initial))
	for item := range mixed.Initial {
		items = append(items, item)
	}
	slices.Sort(items)
	withReaders := map[int]*program.Program{}
	for id, p := range mixed.Programs {
		withReaders[id] = p
	}
	reader := program.MustParse(fmt.Sprintf("program R { let a := %s; let b := %s; }", items[0], items[len(items)-1]))
	readOnly, begin := map[int]bool{}, map[int]int{101: 0, 102: 4, 103: 1 << 20}
	for id := range begin {
		withReaders[id], readOnly[id] = reader, true
	}
	cascade := map[int]*program.Program{
		1: program.MustParse(`program A { x := 5; z := z + 1; }`),
		2: program.MustParse(`program B { y := x; }`),
	}
	other := program.MustParse(`program F { b := b + 1; }`)
	failing := map[int]*program.Program{1: program.MustParse(`program E { a := a + 1; b := a / 0; }`), 2: other}
	boom := program.MustParse(`program P { a := a + 1; b := b + 1; }`)
	boom.Body[1].(*program.Assign).Expr = (*constraint.Arith)(nil) // evaluating it dereferences nil
	panicking := map[int]*program.Program{1: boom, 2: other}
	ab := state.Ints(map[string]int64{"a": 1, "b": 1})

	bg := context.Background()
	return []recycleCase{
		{name: "large", concurrent: true, cfg: func() (context.Context, exec.Config) {
			return bg, exec.Config{Programs: large.Programs, Initial: large.Initial, DataSets: large.DataSets,
				Policy: sched.NewOptimisticCertify(large.DataSets, sched.NewRandom(5), nil)}
		}},
		{name: "small", concurrent: true, cfg: func() (context.Context, exec.Config) {
			return bg, exec.Config{Programs: small.Programs, Initial: small.Initial, Policy: &sched.RoundRobin{}}
		}},
		{name: "readers", concurrent: true, cfg: func() (context.Context, exec.Config) {
			return bg, exec.Config{Programs: withReaders, Initial: mixed.Initial, DataSets: mixed.DataSets,
				ReadOnly: readOnly, ROBegin: begin,
				Policy: sched.NewOptimisticCertify(mixed.DataSets, sched.NewRandom(9), nil)}
		}},
		{name: "cascade", concurrent: true, cfg: func() (context.Context, exec.Config) {
			// Round-robin grants w1(x, 5), r2(x, 5); aborting T1 must
			// take T2 along, which read the erased 5.
			return bg, exec.Config{Programs: cascade, Initial: state.Ints(map[string]int64{"x": 1, "y": 0, "z": 0}),
				Policy: &forcedRestart{Policy: &sched.RoundRobin{}, victim: 1, after: 2}}
		}},
		{name: "cancelled", cfg: func() (context.Context, exec.Config) {
			ctx, cancel := context.WithCancel(bg)
			pol := &cancelGateAfter{OptimisticCertify: sched.NewOptimisticCertify(large.DataSets, sched.NewRandom(5), nil), n: 20, cancel: cancel}
			return ctx, exec.Config{Programs: large.Programs, Initial: large.Initial, DataSets: large.DataSets, Policy: pol}
		}},
		{name: "failing", concurrent: true, cfg: func() (context.Context, exec.Config) {
			return bg, exec.Config{Programs: failing, Initial: ab, Policy: &sched.RoundRobin{}}
		}},
		{name: "panicking", cfg: func() (context.Context, exec.Config) {
			return bg, exec.Config{Programs: panicking, Initial: ab, Policy: &sched.RoundRobin{}}
		}},
	}
}

// outcome is what one run produced.
type outcome struct {
	res      *exec.Result
	err      error
	panicked bool
	initial  state.DB
}

// runCase runs c on s, recovering a panic.
func runCase(s *exec.RunState, c recycleCase) (o outcome) {
	ctx, cfg := c.cfg()
	o.initial = cfg.Initial
	defer func() { o.panicked = recover() != nil }()
	o.res, o.err = s.Run(ctx, cfg)
	return o
}

// sameOutcome requires got to be want: the same panic, the same error,
// and a Result with the byte-identical history and equal Metrics and
// Final.
func sameOutcome(t *testing.T, what string, got, want outcome) {
	t.Helper()
	if got.panicked != want.panicked || fmt.Sprint(got.err) != fmt.Sprint(want.err) || (got.res == nil) != (want.res == nil) {
		t.Fatalf("%s: panicked %v, error %v, result %v; on fresh state panicked %v, error %v, result %v",
			what, got.panicked, got.err, got.res != nil, want.panicked, want.err, want.res != nil)
	}
	if got.res == nil {
		return
	}
	checkSchedulePositions(t, got.res.Schedule)
	encode := func(o outcome) []byte {
		h, err := txn.EncodeHistory(o.initial, o.res.Schedule)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return h
	}
	if g, w := encode(got), encode(want); !bytes.Equal(g, w) {
		t.Fatalf("%s: history differs from the run on fresh state:\n%s\nwant\n%s", what, g, w)
	}
	if !reflect.DeepEqual(got.res.Metrics, want.res.Metrics) {
		t.Fatalf("%s: metrics = %+v, on fresh state %+v", what, got.res.Metrics, want.res.Metrics)
	}
	if !reflect.DeepEqual(got.res.Final, want.res.Final) {
		t.Fatalf("%s: final state = %v, on fresh state %v", what, got.res.Final, want.res.Final)
	}
}

// TestTickRunsOwnTheirResults is the tick engine's recycling
// differential. A sequence of differently shaped runs on one recycled
// run state — larger then smaller, with and without declared readers,
// with aborts, cancelled, failing and panicking — must produce what each
// run produces on fresh state: the byte-identical history, equal
// Metrics and Final. Every earlier Result must still hold what it held
// once the later runs are done, because none points into the state.
// Then the same runs go through RunManyCtx, whose runs share the
// package's pool, at GOMAXPROCS 1 and 8 (under -race, that is the
// pool's race check).
func TestTickRunsOwnTheirResults(t *testing.T) {
	cases := recycleCases()
	byName := make(map[string]recycleCase, len(cases))
	want := make(map[string]outcome, len(cases))
	for _, c := range cases {
		byName[c.name], want[c.name] = c, runCase(new(exec.RunState), c)
	}
	for name, vacuous := range map[string]bool{
		"large":     want["large"].res == nil || want["large"].res.Metrics.Aborts == 0,
		"readers":   want["readers"].res == nil || want["readers"].res.Metrics.ROTxns != 3,
		"cascade":   want["cascade"].res == nil || want["cascade"].res.Metrics.Aborts != 2,
		"cancelled": !errors.Is(want["cancelled"].err, exec.ErrCanceled) || want["cancelled"].res == nil || want["cancelled"].res.Schedule.Len() == 0,
		"failing":   want["failing"].err == nil || want["failing"].res != nil,
		"panicking": !want["panicking"].panicked,
	} {
		if vacuous {
			t.Fatalf("%s: the case does not do what it is for: %+v", name, want[name])
		}
	}

	// The cascade right after a cascade runs on procs whose reads-from
	// lists the first one left full.
	seq := []string{"large", "small", "readers", "cascade", "cascade", "cancelled", "failing", "panicking", "cascade", "large", "readers", "small"}
	var s exec.RunState
	got := make([]outcome, len(seq))
	for i, name := range seq {
		got[i] = runCase(&s, byName[name])
		sameOutcome(t, fmt.Sprintf("run %d (%s)", i, name), got[i], want[name])
	}
	for i, name := range seq {
		sameOutcome(t, fmt.Sprintf("run %d (%s) after run %d", i, name, len(seq)-1), got[i], want[name])
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		for round := 0; round < 4; round++ {
			var cfgs []exec.Config
			var names []string
			for range 3 {
				for _, c := range cases {
					if c.concurrent {
						_, cfg := c.cfg()
						cfgs, names = append(cfgs, cfg), append(names, c.name)
					}
				}
			}
			results, errs := exec.RunManyCtx(context.Background(), cfgs, 4)
			for i, name := range names {
				got := outcome{res: results[i], err: errs[i], initial: cfgs[i].Initial}
				sameOutcome(t, fmt.Sprintf("GOMAXPROCS %d round %d run %d (%s)", procs, round, i, name), got, want[name])
			}
		}
	}
}
