package sched_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/state"
)

// TestCertifyStallsOptimisticCompletes is the stall-regression pair the
// abort machinery exists for: a fixed workload and inner-policy seed
// where the blocking gate deterministically dies with exec.ErrStall,
// and the optimistic gate — driving the identical grant sequence up to
// the stall point — completes it by sacrificing victims.
func TestCertifyStallsOptimisticCompletes(t *testing.T) {
	w := gen.MustGenerate(gen.Config{
		Conjuncts: 1, Programs: 3, MovesPerProgram: 1, Style: gen.StyleFixed, Seed: 0,
	})

	blocking := sched.NewCertify(w.DataSets, sched.NewRandom(0))
	_, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: w.Programs, Initial: w.Initial, Policy: blocking, DataSets: w.DataSets,
	})
	if !errors.Is(err, exec.ErrStall) {
		t.Fatalf("blocking gate: err = %v, want ErrStall (fixture regressed)", err)
	}

	optimistic := sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(0), nil)
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

	// Blocking gate, scripted into the cycle: r1(b), r2(a), w1(a) draws
	// T2 -> T1; the remaining w2(b) would close T1 -> T2 -> T1.
	gate := sched.NewCertify(partition, sched.NewScript(1, 2, 1, 2))
	_, err := exec.RunCtx(context.Background(), exec.Config{Programs: programs, Initial: initial, Policy: gate, DataSets: partition})
	if !errors.Is(err, exec.ErrStall) {
		t.Fatalf("blocking gate: err = %v, want ErrStall", err)
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
// shapes, the optimistic gate must finish every run the blocking gate
// may die on — no ErrStall — and every schedule must be PWSR by
// construction and replay value-consistently.
func TestOptimisticNeverStalls(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	blockingStalls, aborted := 0, 0
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
			Policy:   sched.NewCertify(w.DataSets, sched.NewRandom(innerSeed)),
			DataSets: w.DataSets,
		}); errors.Is(err, exec.ErrStall) {
			blockingStalls++
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
	if blockingStalls == 0 {
		t.Fatal("vacuous: the blocking gate never stalled, sweep exercises nothing")
	}
	if aborted == 0 {
		t.Fatal("vacuous: the optimistic gate never aborted")
	}
	t.Logf("blocking stalls resolved: %d/60 trials; optimistic aborted in %d", blockingStalls, aborted)
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
