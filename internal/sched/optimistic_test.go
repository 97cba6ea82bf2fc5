package sched_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/paper"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// TestCertifySchedulesArePWSR runs random workloads under the
// certifying gate: every run must complete with a PWSR schedule, and
// the gate's own monitor must agree with the batch checker.
func TestCertifySchedulesArePWSR(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		w := gen.MustGenerate(gen.Config{
			Conjuncts: 2, Programs: 3, Style: gen.StyleFixed, Seed: rng.Int63(),
		})
		gate := sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(rng.Int63()), nil)
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: w.Programs,
			Initial:  w.Initial,
			Policy:   gate,
			DataSets: w.DataSets,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !core.CheckPWSR(res.Schedule, w.DataSets).PWSR {
			t.Fatalf("trial %d: certified schedule not PWSR:\n%s", trial, res.Schedule)
		}
		if !gate.Monitor().PWSR() {
			t.Fatalf("trial %d: gate monitor disagrees with batch checker", trial)
		}
	}
}

// TestCertifyBlocksCycleClosingOp drives the lost-update interleaving
// against a gate that never aborts: the write that would close the
// cycle must be filtered out, forcing the inner policy to see only
// admissible requests.
func TestCertifyBlocksCycleClosingOp(t *testing.T) {
	w := gen.MustGenerate(gen.Config{
		Conjuncts: 1, Programs: 2, Style: gen.StyleFixed, Seed: 7,
	})
	// A random inner policy may stall when every remaining request is
	// inadmissible, but whatever completes must be PWSR; run a few
	// seeds to get at least one completion.
	done := false
	for seed := int64(0); seed < 20 && !done; seed++ {
		gate := sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(seed), sched.NeverAbort)
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: w.Programs,
			Initial:  w.Initial,
			Policy:   gate,
			DataSets: w.DataSets,
		})
		if err != nil {
			continue
		}
		done = true
		if !core.CheckPWSR(res.Schedule, w.DataSets).PWSR {
			t.Fatalf("seed %d: certified schedule not PWSR", seed)
		}
	}
	if !done {
		t.Fatal("no seed completed under the gate")
	}
}

// example2 returns the paper's Example 2 as an engine configuration
// (no policy) and its integrity constraint's partition.
func example2() (*paper.Example, exec.Config) {
	e := paper.Example2()
	programs := make(map[int]*program.Program, len(e.Programs))
	for i, p := range e.Programs {
		programs[i+1] = p
	}
	return e, exec.Config{Programs: programs, Initial: e.Initial, DataSets: e.IC.Partition()}
}

// observed records every operation the gate commits to its certifier.
type observed struct {
	sched.Certifier
	ops []string
}

func (o *observed) Observe(op txn.Op) *core.Violation {
	o.ops = append(o.ops, op.String())
	return o.Certifier.Observe(op)
}

// abortCounting counts the aborts the engine reports to the gate.
type abortCounting struct {
	*sched.OptimisticCertify
	aborts int
}

func (g *abortCounting) TxnAborted(id int, v *exec.View) {
	g.aborts++
	g.OptimisticCertify.TxnAborted(id, v)
}

// TestExample2RefusedByTheGate is the paper's Example 2 refutation:
// PWSR (Definition 2) alone does not preserve the constraint. Of every
// interleaving of TP1 and TP2, exactly one is PWSR and not strongly
// correct — the grant script 1 2 2 2 1, the printed schedule
// w1(a, 1), r2(a, 1), r2(b, -1), w2(c, -1), r1(c, -1). Given that
// script as its inner policy and a victim policy that declines, the
// gate grants w1(a, 1) and stalls: r2(a) would read T1's uncommitted
// write, which the delayed-read rule refuses, and the script will grant
// nothing else.
func TestExample2RefusedByTheGate(t *testing.T) {
	e, cfg := example2()
	sys := core.NewSystem(e.IC, e.Schema)
	var refuted [][]int
	if _, err := exec.Enumerate(cfg, 0, func(script []int, res *exec.Result) error {
		if !core.CheckPWSR(res.Schedule, cfg.DataSets).PWSR {
			return nil
		}
		sc, err := sys.CheckStrongCorrectness(res.Schedule, e.Initial)
		if err != nil {
			return err
		}
		if !sc.StronglyCorrect {
			refuted = append(refuted, script)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(refuted); got != "[[1 2 2 2 1]]" {
		t.Fatalf("PWSR schedules that are not strongly correct: scripts %s, want [[1 2 2 2 1]]", got)
	}

	mon := &observed{Certifier: core.NewMonitor(cfg.DataSets)}
	cfg.Policy = sched.NewOptimisticCertifyOver(mon, sched.NewScript(1, 2, 2, 2, 1), sched.NeverAbort)
	_, err := exec.RunCtx(context.Background(), cfg)
	if !errors.Is(err, exec.ErrStall) {
		t.Fatalf("err = %v, want exec.ErrStall", err)
	}
	if got := strings.Join(mon.ops, ", "); got != "w1(a, 1)" {
		t.Fatalf("the gate granted %s, want w1(a, 1) alone", got)
	}
	if !strings.Contains(err.Error(), "pending [r1(c, ?) r2(a, ?)]") {
		t.Fatalf("stall %q, want pending [r1(c, ?) r2(a, ?)]", err)
	}
}

// TestDeclinedInnerStallsWithoutAborts: an inner policy that declines
// an admissible request stalls the run at once. Example 2's script
// wants r2(a), which the delayed-read rule refuses while r1(c) is
// admissible; the default victim policy is never asked, because
// sacrificing T2 would leave the script's answer as it was, round after
// round until the abort budget ran out.
func TestDeclinedInnerStallsWithoutAborts(t *testing.T) {
	_, cfg := example2()
	gate := &abortCounting{OptimisticCertify: sched.NewOptimisticCertify(cfg.DataSets, sched.NewScript(1, 2, 2, 2, 1), nil)}
	cfg.Policy = gate
	_, err := exec.RunCtx(context.Background(), cfg)
	if !errors.Is(err, exec.ErrStall) {
		t.Fatalf("err = %v, want exec.ErrStall", err)
	}
	if gate.aborts != 0 {
		t.Fatalf("the run aborted %d times for a declined admissible request, want 0", gate.aborts)
	}
	if !strings.Contains(err.Error(), "pending [r1(c, ?) r2(a, ?)]") {
		t.Fatalf("stall %q, want pending [r1(c, ?) r2(a, ?)]", err)
	}
}

// TestDecliningVictimConsultedOncePerStall: where nothing is
// admissible, a victim policy that declines is asked once at the
// stall, not a second time over a phase the gate cleared on its behalf.
func TestDecliningVictimConsultedOncePerStall(t *testing.T) {
	w := gen.MustGenerate(gen.Config{
		Conjuncts: 1, Programs: 3, MovesPerProgram: 1, Style: gen.StyleFixed, Seed: 0,
	})
	calls := 0
	decline := func(pending []*exec.Request, candidates []int, v *exec.View) int {
		calls++
		return -1
	}
	_, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: w.Programs, Initial: w.Initial, DataSets: w.DataSets,
		Policy: sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(1), decline),
	})
	if !errors.Is(err, exec.ErrStall) {
		t.Fatalf("err = %v, want exec.ErrStall", err)
	}
	if calls != 1 {
		t.Fatalf("the victim policy was consulted %d times for one stall, want 1", calls)
	}
}

// TestCertifyStallsOptimisticCompletes is the stall-regression pair the
// abort machinery exists for: a fixed workload and inner-policy seed
// where the gate, its victim policy declining, deterministically dies
// with exec.ErrStall, and the same gate naming victims — driving the
// identical grant sequence up to the stall point — completes it by
// sacrificing them.
func TestCertifyStallsOptimisticCompletes(t *testing.T) {
	w := gen.MustGenerate(gen.Config{
		Conjuncts: 1, Programs: 3, MovesPerProgram: 1, Style: gen.StyleFixed, Seed: 0,
	})

	declining := sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(1), sched.NeverAbort)
	_, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: w.Programs, Initial: w.Initial, Policy: declining, DataSets: w.DataSets,
	})
	if !errors.Is(err, exec.ErrStall) {
		t.Fatalf("declining gate: err = %v, want ErrStall (fixture regressed)", err)
	}

	optimistic := sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(1), nil)
	res, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: w.Programs, Initial: w.Initial, Policy: optimistic, DataSets: w.DataSets,
	})
	if err != nil {
		t.Fatalf("optimistic gate: %v", err)
	}
	if res.Metrics.Aborts == 0 {
		t.Fatal("optimistic gate completed the stalling workload without aborting anything")
	}
	if res.Metrics.Restarts != res.Metrics.Aborts {
		t.Fatalf("Restarts = %d, Aborts = %d", res.Metrics.Restarts, res.Metrics.Aborts)
	}
	if !core.CheckPWSR(res.Schedule, w.DataSets).PWSR {
		t.Fatalf("optimistic schedule not PWSR:\n%s", res.Schedule)
	}
	if err := res.Schedule.ConsistentValues(w.Initial); err != nil {
		t.Fatalf("surviving schedule does not replay: %v", err)
	}
	if !optimistic.Monitor().PWSR() {
		t.Fatal("gate monitor disagrees")
	}
}

// TestOptimisticResolvesHandBuiltCycle pins the smallest interesting
// case by hand: two transactions whose interleaving closes a two-cycle
// in the single conjunct, where the only live transaction left is the
// immune one — the certification dead-end that must be resolved by
// sacrificing it.
func TestOptimisticResolvesHandBuiltCycle(t *testing.T) {
	programs := map[int]*program.Program{
		1: program.MustParse(`program P1 { a := b + 1; }`),
		2: program.MustParse(`program P2 { b := a + 1; }`),
	}
	initial := state.Ints(map[string]int64{"a": 0, "b": 0})
	partition := []state.ItemSet{state.NewItemSet("a", "b")}

	// A gate that never aborts, scripted into the cycle: r1(b), r2(a),
	// w1(a) draws T2 -> T1; the remaining w2(b) would close
	// T1 -> T2 -> T1.
	gate := sched.NewOptimisticCertify(partition, sched.NewScript(1, 2, 1, 2), sched.NeverAbort)
	_, err := exec.RunCtx(context.Background(), exec.Config{Programs: programs, Initial: initial, Policy: gate, DataSets: partition})
	if !errors.Is(err, exec.ErrStall) {
		t.Fatalf("declining gate: err = %v, want ErrStall", err)
	}

	// Round-robin reaches the same trap; the optimistic gate sacrifices
	// the trapped transaction and completes.
	opt := sched.NewOptimisticCertify(partition, &sched.RoundRobin{}, nil)
	res, err := exec.RunCtx(context.Background(), exec.Config{Programs: programs, Initial: initial, Policy: opt, DataSets: partition})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Aborts != 1 {
		t.Fatalf("Aborts = %d, want exactly 1", res.Metrics.Aborts)
	}
	if err := res.Schedule.ConsistentValues(initial); err != nil {
		t.Fatalf("schedule does not replay: %v\n%s", err, res.Schedule)
	}
	if !core.CheckPWSR(res.Schedule, partition).PWSR {
		t.Fatalf("not PWSR:\n%s", res.Schedule)
	}
}

// TestOptimisticNeverStalls is the seeded no-stall sweep: across 60
// random workloads spanning the generator's styles and contention
// shapes, the gate must finish every run it dies on with its victim
// policy declining — no ErrStall — and every schedule must be PWSR by
// construction and replay value-consistently.
func TestOptimisticNeverStalls(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	declinedStalls, aborted := 0, 0
	for trial := 0; trial < 60; trial++ {
		cfg := gen.Config{
			Conjuncts:       1 + trial%3,
			Programs:        2 + trial%3,
			MovesPerProgram: 1 + trial%2,
			Style:           gen.Style(trial % 3),
			Seed:            rng.Int63(),
		}
		w := gen.MustGenerate(cfg)
		innerSeed := rng.Int63()

		if _, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: w.Programs, Initial: w.Initial,
			Policy:   sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(innerSeed), sched.NeverAbort),
			DataSets: w.DataSets,
		}); errors.Is(err, exec.ErrStall) {
			declinedStalls++
		}

		victim := sched.VictimYoungest
		if trial%2 == 1 {
			victim = sched.VictimFewestOps
		}
		mon := core.NewMonitor(w.DataSets)
		opt := sched.NewOptimisticCertifyOver(mon, sched.NewRandom(innerSeed), victim)
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: w.Programs, Initial: w.Initial, Policy: opt, DataSets: w.DataSets,
		})
		if err != nil {
			t.Fatalf("trial %d (cfg %+v): optimistic gate failed: %v", trial, cfg, err)
		}
		if res.Metrics.Aborts > 0 {
			aborted++
		}
		if !core.CheckPWSR(res.Schedule, w.DataSets).PWSR {
			t.Fatalf("trial %d: not PWSR:\n%s", trial, res.Schedule)
		}
		if err := res.Schedule.ConsistentValues(w.Initial); err != nil {
			t.Fatalf("trial %d: schedule does not replay: %v", trial, err)
		}
		if !opt.Monitor().PWSR() {
			t.Fatalf("trial %d: gate monitor disagrees with batch checker", trial)
		}
		// The cascadeless gate produces DR schedules by construction, so
		// Theorem 2 applies: for the generator's correct-by-construction
		// programs every run must be strongly correct (solver-checked on
		// a subsample to keep the sweep fast).
		if !res.Schedule.IsDelayedRead() {
			t.Fatalf("trial %d: optimistic schedule not delayed-read:\n%s", trial, res.Schedule)
		}
		if trial%6 == 0 {
			sys := core.NewSystem(w.IC, w.Schema)
			sc, err := sys.CheckStrongCorrectness(res.Schedule, w.Initial)
			if err != nil {
				t.Fatal(err)
			}
			if !sc.StronglyCorrect {
				t.Fatalf("trial %d: PWSR ∧ DR schedule not strongly correct (Theorem 2 violated):\n%s",
					trial, res.Schedule)
			}
		}
		// The monitor's surviving state must equal a fresh replay of the
		// recorded schedule (the Retract contract, end to end).
		fresh := core.NewMonitor(w.DataSets)
		if v := fresh.ObserveAll(res.Schedule); v != nil {
			t.Fatalf("trial %d: recorded schedule rejected on replay: %v", trial, v)
		}
		for e := range w.DataSets {
			got, want := mon.ConflictEdges(e), fresh.ConflictEdges(e)
			if len(got) != len(want) {
				t.Fatalf("trial %d: conjunct %d edge count %d vs fresh %d", trial, e, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d: conjunct %d edges diverge: %v vs %v", trial, e, got, want)
				}
			}
		}
	}
	if declinedStalls == 0 {
		t.Fatal("vacuous: the declining gate never stalled, sweep exercises nothing")
	}
	if aborted == 0 {
		t.Fatal("vacuous: the optimistic gate never aborted")
	}
	t.Logf("declined stalls resolved: %d/60 trials; optimistic aborted in %d", declinedStalls, aborted)
}

// TestOptimisticVictimPolicies checks the two selection policies pick
// the documented victims on a crafted view.
func TestOptimisticVictimPolicies(t *testing.T) {
	w := gen.MustGenerate(gen.Config{
		Conjuncts: 1, Programs: 4, MovesPerProgram: 1, Style: gen.StyleFixed, Seed: 0,
	})
	for _, victim := range []struct {
		name string
		p    sched.VictimPolicy
	}{
		{"youngest", sched.VictimYoungest},
		{"fewest-ops", sched.VictimFewestOps},
	} {
		opt := sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(0), victim.p)
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: w.Programs, Initial: w.Initial, Policy: opt, DataSets: w.DataSets,
		})
		if err != nil {
			t.Fatalf("%s: %v", victim.name, err)
		}
		if !core.CheckPWSR(res.Schedule, w.DataSets).PWSR {
			t.Fatalf("%s: not PWSR", victim.name)
		}
	}
}
