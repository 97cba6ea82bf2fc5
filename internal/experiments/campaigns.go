// Package experiments implements the reproduction's experiment index:
// randomized validation campaigns for Theorems 1–3 and their necessity
// (Examples 2–5 at scale), verdict tables for the paper's worked
// examples, worked illustrations of the figures (Lemmas 1–7 and
// Definition 4), and the checker-scaling measurements. The command
// pwsrbench renders these tables; EXPERIMENTS.md records them.
package experiments

import (
	"context"
	"errors"
	"fmt"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/sched"
	"pwsr/internal/serial"
	"pwsr/internal/sim"
)

// Theorem identifies one of the paper's sufficient conditions.
type Theorem int

// The paper's theorems.
const (
	Theorem1 Theorem = 1 // PWSR + fixed-structure programs
	Theorem2 Theorem = 2 // PWSR + delayed-read schedule
	Theorem3 Theorem = 3 // PWSR + acyclic data access graph
)

// Campaign aggregates a randomized validation run.
type Campaign struct {
	// Name describes the campaign.
	Name string
	// Positive is true for validation campaigns (violations expected to
	// be zero) and false for necessity campaigns (violations expected).
	Positive bool
	// Trials is the number of seeds attempted.
	Trials int
	// Stalls counts runs discarded due to scheduler stalls.
	Stalls int
	// PWSRCount counts schedules that were PWSR.
	PWSRCount int
	// NonSerializablePWSR counts PWSR schedules that were NOT globally
	// serializable — the interesting population.
	NonSerializablePWSR int
	// HypothesisMet counts trials where the theorem's full hypothesis
	// held.
	HypothesisMet int
	// Violations counts hypothesis-met trials that were NOT strongly
	// correct. Zero for positive campaigns = the theorem held; positive
	// for necessity campaigns = the dropped hypothesis matters.
	Violations int
	// ViolationSeeds lists seeds of violating trials (up to 10).
	ViolationSeeds []int64
}

// Passed reports whether the campaign's expectation was met.
func (c *Campaign) Passed() bool {
	if c.Positive {
		return c.HypothesisMet > 0 && c.Violations == 0
	}
	return c.Violations > 0
}

// trialOutcome is one seeded execution, classified.
type trialOutcome struct {
	stalled         bool
	pwsr            bool
	dr              bool
	dagAcyclic      bool
	serializable    bool
	stronglyCorrect bool
}

// runTrial executes the workload under the policy and classifies the
// schedule.
func runTrial(w *gen.Workload, policy exec.Policy) (*trialOutcome, error) {
	res, err := exec.RunCtx(context.TODO(), exec.Config{
		Programs: w.Programs,
		Initial:  w.Initial,
		Policy:   policy,
		DataSets: w.DataSets,
	})
	if err != nil {
		if errors.Is(err, exec.ErrStall) {
			return &trialOutcome{stalled: true}, nil
		}
		return nil, err
	}
	out := &trialOutcome{
		pwsr:         core.CheckPWSR(res.Schedule, w.DataSets).PWSR,
		dr:           res.Schedule.IsDelayedRead(),
		serializable: serial.IsCSR(res.Schedule),
	}
	sys := core.NewSystem(w.IC, w.Schema)
	out.dagAcyclic = sys.DataAccessGraph(res.Schedule).Acyclic()
	sc, err := sys.CheckStrongCorrectness(res.Schedule, w.Initial)
	if err != nil {
		return nil, err
	}
	out.stronglyCorrect = sc.StronglyCorrect
	return out, nil
}

// hypothesis evaluates the theorem's hypothesis on an outcome. The
// fixed-structure and program-shape parts are guaranteed by workload
// construction and asserted separately in tests.
func hypothesis(th Theorem, o *trialOutcome) bool {
	switch th {
	case Theorem1:
		return o.pwsr
	case Theorem2:
		return o.pwsr && o.dr
	case Theorem3:
		return o.pwsr && o.dagAcyclic
	default:
		return false
	}
}

// RunValidation runs the positive campaign for a theorem: workloads
// satisfying the theorem's program-level hypothesis by construction,
// random interleavings (DR-gated for Theorem 2), and the expectation
// that every hypothesis-met schedule is strongly correct.
func RunValidation(th Theorem, trials int, baseSeed int64) (*Campaign, error) {
	c := &Campaign{Positive: true, Trials: trials}
	switch th {
	case Theorem1:
		c.Name = "T1: PWSR + fixed-structure ⇒ strongly correct"
	case Theorem2:
		c.Name = "T2: PWSR + delayed-read ⇒ strongly correct"
	case Theorem3:
		c.Name = "T3: PWSR + acyclic DAG ⇒ strongly correct"
	}
	for i := 0; i < trials; i++ {
		seed := baseSeed + int64(i)
		w, policy, err := validationInstance(th, seed)
		if err != nil {
			return nil, err
		}
		o, err := runTrial(w, policy)
		if err != nil {
			return nil, err
		}
		c.observe(th, o, seed)
	}
	return c, nil
}

// validationInstance builds the per-seed workload and policy for a
// positive campaign.
func validationInstance(th Theorem, seed int64) (*gen.Workload, exec.Policy, error) {
	switch th {
	case Theorem1:
		w, err := gen.Generate(gen.Config{
			Conjuncts: 3, Programs: 3, MovesPerProgram: 2,
			Style: gen.StyleFixed, Seed: seed,
		})
		return w, sched.NewRandom(seed), err
	case Theorem2:
		// Arbitrary (non-fixed-structure) programs, DR-gated random
		// interleavings: the regime where only Theorem 2 applies.
		w, err := gen.Example2Family(2, seed)
		return w, &sched.DelayedRead{Inner: sched.NewRandom(seed)}, err
	case Theorem3:
		// Ordered cross-conjunct access, possibly conditional programs,
		// raw random interleavings.
		w, err := gen.Generate(gen.Config{
			Conjuncts: 3, Programs: 3, MovesPerProgram: 3,
			Style: gen.StyleOrdered, Seed: seed,
		})
		return w, sched.NewRandom(seed), err
	}
	return nil, nil, fmt.Errorf("experiments: unknown theorem %d", th)
}

// RunNecessity runs the necessity campaign for a theorem: the same
// populations with the theorem's distinguishing hypothesis dropped —
// the randomized Example 2 family under raw random interleavings, whose
// schedules are PWSR but neither DR nor DAG-acyclic nor from
// fixed-structure programs. Violations are expected.
func RunNecessity(th Theorem, trials int, baseSeed int64) (*Campaign, error) {
	c := &Campaign{Positive: false, Trials: trials}
	switch th {
	case Theorem1:
		c.Name = "T1 necessity: drop fixed-structure (Example 2 family)"
	case Theorem2:
		c.Name = "T2 necessity: drop delayed-read (Example 2 family)"
	case Theorem3:
		c.Name = "T3 necessity: drop acyclic DAG (Example 2 family)"
	}
	for i := 0; i < trials; i++ {
		seed := baseSeed + int64(i)
		w, err := gen.Example2Family(1, seed)
		if err != nil {
			return nil, err
		}
		o, err := runTrial(w, sched.NewRandom(seed))
		if err != nil {
			return nil, err
		}
		// For necessity the "hypothesis" is PWSR plus the ABSENCE of
		// the theorem's distinguishing condition.
		if o != nil && !o.stalled {
			dropped := o.pwsr
			switch th {
			case Theorem2:
				dropped = o.pwsr && !o.dr
			case Theorem3:
				dropped = o.pwsr && !o.dagAcyclic
			}
			c.classify(o, dropped, seed)
		} else {
			c.Stalls++
		}
	}
	return c, nil
}

// RunRepairedNecessity re-runs the Theorem 1 necessity population with
// every program passed through the Balance fixed-structure repair: the
// violations must disappear (the §3.1 TP1 → TP1' story, randomized).
func RunRepairedNecessity(trials int, baseSeed int64) (*Campaign, error) {
	c := &Campaign{
		Name:     "T1 repaired: Example 2 family after Balance (TP → TP')",
		Positive: true,
		Trials:   trials,
	}
	for i := 0; i < trials; i++ {
		seed := baseSeed + int64(i)
		w, err := gen.Example2Family(1, seed)
		if err != nil {
			return nil, err
		}
		repaired, err := w.BalanceAll()
		if err != nil {
			return nil, err
		}
		o, err := runTrial(repaired, sched.NewRandom(seed))
		if err != nil {
			return nil, err
		}
		c.observe(Theorem1, o, seed)
	}
	return c, nil
}

func (c *Campaign) observe(th Theorem, o *trialOutcome, seed int64) {
	if o.stalled {
		c.Stalls++
		return
	}
	c.classify(o, hypothesis(th, o), seed)
}

func (c *Campaign) classify(o *trialOutcome, hypothesisMet bool, seed int64) {
	if o.pwsr {
		c.PWSRCount++
		if !o.serializable {
			c.NonSerializablePWSR++
		}
	}
	if hypothesisMet {
		c.HypothesisMet++
		if !o.stronglyCorrect {
			c.Violations++
			if len(c.ViolationSeeds) < 10 {
				c.ViolationSeeds = append(c.ViolationSeeds, seed)
			}
		}
	}
}

// CampaignTable renders campaigns as a results table.
func CampaignTable(title string, cs ...*Campaign) *sim.Table {
	t := &sim.Table{
		Title: title,
		Columns: []string{
			"campaign", "trials", "stalls", "pwsr", "pwsr-not-sr",
			"hyp-met", "violations", "expected", "result",
		},
	}
	for _, c := range cs {
		expect := "= 0"
		if !c.Positive {
			expect = "> 0"
		}
		result := "PASS"
		if !c.Passed() {
			result = "FAIL"
		}
		t.AddRow(
			c.Name,
			fmt.Sprintf("%d", c.Trials),
			fmt.Sprintf("%d", c.Stalls),
			fmt.Sprintf("%d", c.PWSRCount),
			fmt.Sprintf("%d", c.NonSerializablePWSR),
			fmt.Sprintf("%d", c.HypothesisMet),
			fmt.Sprintf("%d", c.Violations),
			expect,
			result,
		)
	}
	return t
}
