package experiments

import (
	"context"
	"errors"
	"fmt"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/sched"
	"pwsr/internal/sim"
)

// Degree2Report quantifies the paper's closing remark that ad-hoc
// operational criteria like degree-2 consistency (cursor stability)
// offer no consistency guarantee: degree-2 schedules are DR by
// construction, but without the PWSR half of Theorem 2's hypothesis
// they can still destroy consistency, while PW2PL (PWSR ∧ DR-free but
// Theorem-1-covered) cannot.
type Degree2Report struct {
	// Trials is the number of seeds.
	Trials int
	// DRCount counts degree-2 schedules confirmed DR.
	DRCount int
	// NonPWSR counts degree-2 schedules that were not PWSR.
	NonPWSR int
	// Degree2Violations counts degree-2 runs that destroyed
	// consistency.
	Degree2Violations int
	// PW2PLViolations counts PW2PL runs of the same workloads that
	// destroyed consistency (must be 0).
	PW2PLViolations int
}

// RunDegree2VsPWSR executes fixed-structure workloads under both
// degree-2 and predicate-wise locking and compares consistency
// outcomes.
func RunDegree2VsPWSR(trials int, baseSeed int64) (*Degree2Report, error) {
	rep := &Degree2Report{Trials: trials}
	for i := 0; i < trials; i++ {
		seed := baseSeed + int64(i)
		w, err := gen.Generate(gen.Config{
			Conjuncts: 2, Programs: 3, MovesPerProgram: 2,
			Style: gen.StyleFixed, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		sys := core.NewSystem(w.IC, w.Schema)

		run := func(policy exec.Policy) (pwsrOK, dr, sc bool, err error) {
			res, err := exec.RunCtx(context.TODO(), exec.Config{
				Programs: w.Programs,
				Initial:  w.Initial,
				Policy:   policy,
				DataSets: w.DataSets,
			})
			if err != nil {
				return false, false, false, err
			}
			report, err := sys.CheckStrongCorrectness(res.Schedule, w.Initial)
			if err != nil {
				return false, false, false, err
			}
			return core.CheckPWSR(res.Schedule, w.DataSets).PWSR,
				res.Schedule.IsDelayedRead(),
				report.StronglyCorrect, nil
		}

		d2pwsr, d2dr, d2sc, err := run(sched.NewDegree2())
		if err != nil {
			if errors.Is(err, exec.ErrStall) {
				continue
			}
			return nil, err
		}
		if d2dr {
			rep.DRCount++
		}
		if !d2pwsr {
			rep.NonPWSR++
		}
		if !d2sc {
			rep.Degree2Violations++
		}

		_, _, pwsc, err := run(sched.NewPW2PL())
		if err != nil {
			if errors.Is(err, exec.ErrStall) {
				continue
			}
			return nil, err
		}
		if !pwsc {
			rep.PW2PLViolations++
		}
	}
	return rep, nil
}

// Degree2Table renders the comparison.
func Degree2Table(r *Degree2Report) *sim.Table {
	t := &sim.Table{
		Title: "D2 — degree-2 consistency (cursor stability) vs predicate-wise locking",
		Columns: []string{
			"trials", "degree2-DR", "degree2-not-PWSR",
			"degree2-violations", "pw2pl-violations",
		},
		Notes: []string{
			"degree-2 schedules are DR but not PWSR: DR alone does not preserve consistency",
			"the same workloads under PW2PL (PWSR + Theorem 1) never violate",
		},
	}
	t.AddRow(
		fmt.Sprintf("%d", r.Trials),
		fmt.Sprintf("%d", r.DRCount),
		fmt.Sprintf("%d", r.NonPWSR),
		fmt.Sprintf("%d", r.Degree2Violations),
		fmt.Sprintf("%d", r.PW2PLViolations),
	)
	return t
}
