package experiments

import (
	"context"
	"fmt"
	"time"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/sched"
	"pwsr/internal/sim"
)

// CheckerScaling measures wall-clock costs of the PWSR and
// strong-correctness checkers as schedule size grows (experiment
// PERF3). Workloads are CAD-shaped: `designs` conjuncts, two long
// transactions sweeping all of them, and 2·designs short transactions.
func CheckerScaling(designs []int, seed int64) (*sim.Table, error) {
	t := &sim.Table{
		Title: "PERF3 — checker cost vs schedule size",
		Columns: []string{
			"designs", "ops", "txns", "pwsr-check", "strong-correct-check",
		},
		Notes: []string{
			"strong-correctness uses the finite-domain solver per transaction and for the final state",
		},
	}
	for _, n := range designs {
		w, _, shortIDs, err := sim.CADWorkload(sim.CADConfig{
			Designs:   n,
			LongTxns:  2,
			LongSpan:  n,
			ShortTxns: 2 * n,
			Seed:      seed,
		})
		if err != nil {
			return nil, err
		}
		res, err := exec.RunCtx(context.TODO(), exec.Config{
			Programs: w.Programs,
			Initial:  w.Initial,
			Policy:   sched.NewPW2PL(),
			DataSets: w.DataSets,
		})
		if err != nil {
			return nil, err
		}
		sys := core.NewSystem(w.IC, w.Schema)

		start := time.Now()
		rep := core.CheckPWSR(res.Schedule, w.DataSets)
		pwsrDur := time.Since(start)
		if !rep.PWSR {
			return nil, fmt.Errorf("experiments: PW2PL schedule not PWSR at %d designs", n)
		}

		start = time.Now()
		sc, err := sys.CheckStrongCorrectness(res.Schedule, w.Initial)
		if err != nil {
			return nil, err
		}
		scDur := time.Since(start)
		if !sc.StronglyCorrect {
			return nil, fmt.Errorf("experiments: CAD schedule not strongly correct at %d designs", n)
		}

		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", res.Schedule.Len()),
			fmt.Sprintf("%d", 2+len(shortIDs)),
			pwsrDur.Round(time.Microsecond).String(),
			scDur.Round(time.Microsecond).String(),
		)
	}
	return t, nil
}
