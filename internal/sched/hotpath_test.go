package sched_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/sched"
)

// gateCase is one certification-gate construction the decision-identity
// campaign drives with the probe cache on and off.
type gateCase struct {
	name string
	mk   func(w *gen.Workload, seed int64) exec.Policy
}

// hotPathGateCases enumerates every certification gate: the blocking
// gate, the optimistic gate under both victim policies, and, as
// "parallel-N", the optimistic gate over an N-shard ShardedMonitor (the
// batch engine's configuration) at shard counts 1..8.
func hotPathGateCases() []gateCase {
	cases := []gateCase{
		{"blocking", func(w *gen.Workload, seed int64) exec.Policy {
			return sched.NewCertify(w.DataSets, sched.NewRandom(seed))
		}},
		{"optimistic-youngest", func(w *gen.Workload, seed int64) exec.Policy {
			return sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(seed), sched.VictimYoungest)
		}},
		{"optimistic-fewest-ops", func(w *gen.Workload, seed int64) exec.Policy {
			return sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(seed), sched.VictimFewestOps)
		}},
	}
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		cases = append(cases, gateCase{fmt.Sprintf("parallel-%d", shards),
			func(w *gen.Workload, seed int64) exec.Policy {
				return sched.NewOptimisticCertifyOver(core.NewShardedMonitor(w.DataSets, shards), sched.NewRandom(seed), sched.VictimYoungest)
			}})
	}
	return cases
}

// setGateProbeCache flips the probe cache on whatever certifier the
// gate carries.
func setGateProbeCache(p exec.Policy, on bool) {
	switch g := p.(type) {
	case *sched.Certify:
		g.Monitor().SetProbeCache(on)
	case *sched.OptimisticCertify:
		g.Monitor().SetProbeCache(on)
	default:
		panic(fmt.Sprintf("unknown gate %T", p))
	}
}

// gateOutcome is everything decision-relevant about one gated run.
type gateOutcome struct {
	stalled  bool
	schedule string
	final    string
	aborts   int
	wasted   int
	ticks    int
}

func runGate(t *testing.T, w *gen.Workload, p exec.Policy) gateOutcome {
	t.Helper()
	res, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: w.Programs,
		Initial:  w.Initial,
		Policy:   p,
		DataSets: w.DataSets,
	})
	if err != nil {
		if errors.Is(err, exec.ErrStall) {
			return gateOutcome{stalled: true}
		}
		t.Fatal(err)
	}
	if !core.CheckPWSR(res.Schedule, w.DataSets).PWSR {
		t.Fatal("gate produced a non-PWSR schedule")
	}
	return gateOutcome{
		schedule: res.Schedule.String(),
		final:    fmt.Sprint(res.Final),
		aborts:   res.Metrics.Aborts,
		wasted:   res.Metrics.WastedOps,
		ticks:    res.Metrics.Ticks,
	}
}

// TestGateDecisionIdentityCachedVsUncached is the PERF8 gate-level
// safety net: over the PERF5-style seeded campaign, every certification
// gate must make exactly the same decisions — same schedules, same
// final states, same aborts, same stalls — with the probe cache on and
// off. The cache may only change what a probe costs, never what it
// answers, and this holds through abort/retract churn and at every
// shard count.
func TestGateDecisionIdentityCachedVsUncached(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for _, gc := range hotPathGateCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			stalls, aborts := 0, 0
			for i := 0; i < trials; i++ {
				seed := int64(300 + i)
				w, err := gen.Generate(gen.Config{
					Conjuncts: 3, Programs: 4, MovesPerProgram: 2,
					Style: gen.Style(i % 3), Seed: seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				cachedGate := gc.mk(w, seed)
				cached := runGate(t, w, cachedGate)
				uncachedGate := gc.mk(w, seed)
				setGateProbeCache(uncachedGate, false)
				uncached := runGate(t, w, uncachedGate)
				if cached != uncached {
					t.Fatalf("seed %d: cached %+v vs uncached %+v", seed, cached, uncached)
				}
				if cached.stalled {
					stalls++
				}
				aborts += cached.aborts
			}
			// The campaign must exercise the interesting machinery.
			if gc.name == "blocking" && stalls == 0 {
				t.Fatal("vacuous: blocking campaign never stalled")
			}
			if gc.name != "blocking" && aborts == 0 {
				t.Fatal("vacuous: optimistic campaign never aborted")
			}
		})
	}
}

// TestGateProbeMetricsSurface checks the engine plumbing: a gated run
// reports the certifier's probe-cache counters through exec.Metrics,
// and re-probes across ticks actually hit.
func TestGateProbeMetricsSurface(t *testing.T) {
	w, err := gen.Generate(gen.Config{
		Conjuncts: 3, Programs: 4, MovesPerProgram: 2, Style: gen.StyleFixed, Seed: 301,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: w.Programs,
		Initial:  w.Initial,
		Policy:   sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(1), nil),
		DataSets: w.DataSets,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.ProbeHits+m.ProbeMisses+m.ProbeInvalidations == 0 {
		t.Fatal("gated run reported no probe traffic")
	}
	if m.ProbeMisses == 0 {
		t.Fatalf("probe metrics missing misses: %+v", m)
	}
}
