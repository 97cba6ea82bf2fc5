package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/sched"
	"pwsr/internal/sim"
)

// CertifyPolicyStudy is experiment PERF5: blocking certification
// (sched.Certify, which dies with ErrStall when every pending request
// would close a conflict cycle) against the abort-capable
// sched.OptimisticCertify under both victim policies, with the
// conservative lockers as baselines, across seeded gen workloads. The
// blocking gate's stalled trials are its cost: those runs produce
// nothing. The optimistic gate finishes everything and pays in aborted
// work instead; the table records both currencies plus the
// virtual-clock totals of the completed runs.
func CertifyPolicyStudy(trials int, baseSeed int64) (*sim.Table, error) {
	t := &sim.Table{
		Title: "PERF5 — certification scheduling: blocking vs optimistic vs locking",
		Columns: []string{
			"policy", "completed", "stalled", "aborts", "wasted-ops", "ticks", "waits", "wall",
		},
		Notes: []string{
			fmt.Sprintf("%d seeded gen workloads (3 conjuncts, 4 programs, mixed styles); per-policy totals over completed runs", trials),
			"optimistic schedules are PWSR ∧ DR by construction (Theorem 2 strong correctness for correct programs)",
		},
	}
	type policyCase struct {
		name string
		mk   func(w *gen.Workload, seed int64) exec.Policy
	}
	cases := []policyCase{
		{"certify-blocking", func(w *gen.Workload, seed int64) exec.Policy {
			return sched.NewCertify(w.DataSets, sched.NewRandom(seed))
		}},
		{"certify-optimistic/youngest", func(w *gen.Workload, seed int64) exec.Policy {
			return sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(seed), sched.VictimYoungest)
		}},
		{"certify-optimistic/fewest-ops", func(w *gen.Workload, seed int64) exec.Policy {
			return sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(seed), sched.VictimFewestOps)
		}},
		{"pw2pl", func(w *gen.Workload, seed int64) exec.Policy { return sched.NewPW2PL() }},
		{"c2pl", func(w *gen.Workload, seed int64) exec.Policy { return sched.NewC2PL() }},
	}
	for _, pc := range cases {
		var completed, stalled, aborts, wasted, ticks, waits int
		start := time.Now()
		for i := 0; i < trials; i++ {
			seed := baseSeed + int64(i)
			w, err := gen.Generate(gen.Config{
				Conjuncts: 3, Programs: 4, MovesPerProgram: 2,
				Style: gen.Style(i % 3), Seed: seed,
			})
			if err != nil {
				return nil, err
			}
			res, err := exec.RunCtx(context.TODO(), exec.Config{
				Programs: w.Programs,
				Initial:  w.Initial,
				Policy:   pc.mk(w, seed),
				DataSets: w.DataSets,
			})
			if err != nil {
				if errors.Is(err, exec.ErrStall) {
					stalled++
					continue
				}
				return nil, fmt.Errorf("experiments: %s seed %d: %w", pc.name, seed, err)
			}
			if !core.CheckPWSR(res.Schedule, w.DataSets).PWSR {
				return nil, fmt.Errorf("experiments: %s seed %d produced a non-PWSR schedule", pc.name, seed)
			}
			completed++
			aborts += res.Metrics.Aborts
			wasted += res.Metrics.WastedOps
			ticks += res.Metrics.Ticks
			waits += res.Metrics.Waits
		}
		wall := time.Since(start)
		t.AddRow(
			pc.name,
			fmt.Sprintf("%d/%d", completed, trials),
			fmt.Sprintf("%d", stalled),
			fmt.Sprintf("%d", aborts),
			fmt.Sprintf("%d", wasted),
			fmt.Sprintf("%d", ticks),
			fmt.Sprintf("%d", waits),
			wall.Round(time.Millisecond).String(),
		)
	}
	return t, nil
}
