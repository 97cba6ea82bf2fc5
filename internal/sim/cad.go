package sim

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"pwsr/internal/constraint"
	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/serial"
	"pwsr/internal/state"
)

// CADConfig parameterizes the CAD/CAM workload: a database partitioned
// into designs (each a conjunct data set with its own invariant), long
// designer transactions sweeping several designs, and short query/fix
// transactions touching a single design.
type CADConfig struct {
	// Designs is the number of design partitions (default 4).
	Designs int
	// ItemsPerDesign is the number of versioned components per design
	// (default 4).
	ItemsPerDesign int
	// LongTxns is the number of long designer transactions (default 2).
	LongTxns int
	// LongSpan is how many designs each long transaction sweeps
	// (default all).
	LongSpan int
	// ShortTxns is the number of short transactions (default 6).
	ShortTxns int
	// Seed drives randomness.
	Seed int64
}

func (c *CADConfig) defaults() {
	if c.Designs <= 0 {
		c.Designs = 4
	}
	if c.ItemsPerDesign <= 0 {
		c.ItemsPerDesign = 4
	}
	if c.LongTxns <= 0 {
		c.LongTxns = 2
	}
	if c.LongSpan <= 0 || c.LongSpan > c.Designs {
		c.LongSpan = c.Designs
	}
	if c.ShortTxns <= 0 {
		c.ShortTxns = 6
	}
}

// item names component j of design i.
func cadItem(i, j int) string { return fmt.Sprintf("d%dc%d", i, j) }

// CADWorkload builds the workload: per-design conjunct
// (c0 > 0 & c1 > 0 & …), long transactions touching every component of
// LongSpan consecutive designs, short transactions touching one or two
// components of a single design. All programs are straight line (hence
// fixed-structure: Theorem 1 applies to every PWSR schedule of this
// workload).
func CADWorkload(cfg CADConfig) (*gen.Workload, []int, []int, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	var srcs []string
	var items []string
	initial := state.NewDB()
	for i := 0; i < cfg.Designs; i++ {
		var terms []string
		for j := 0; j < cfg.ItemsPerDesign; j++ {
			it := cadItem(i, j)
			items = append(items, it)
			terms = append(terms, it+" > 0")
			initial.Set(it, state.Int(int64(1+rng.Intn(5))))
		}
		srcs = append(srcs, strings.Join(terms, " & "))
	}
	ic, err := constraint.ParseICFromConjuncts(srcs...)
	if err != nil {
		return nil, nil, nil, err
	}

	w := &gen.Workload{
		IC:       ic,
		Schema:   state.UniformInts(-64, 64, items...),
		Initial:  initial,
		Programs: map[int]*program.Program{},
		DataSets: ic.Partition(),
	}

	var longIDs, shortIDs []int
	id := 1
	for t := 0; t < cfg.LongTxns; t++ {
		start := 0
		if cfg.Designs > cfg.LongSpan {
			start = rng.Intn(cfg.Designs - cfg.LongSpan + 1)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "program Long%d {\n", id)
		for i := start; i < start+cfg.LongSpan; i++ {
			for j := 0; j < cfg.ItemsPerDesign; j++ {
				it := cadItem(i, j)
				fmt.Fprintf(&b, "%s := abs(%s) + %d;\n", it, it, 1+rng.Intn(3))
			}
		}
		b.WriteString("}\n")
		p, err := program.Parse(b.String())
		if err != nil {
			return nil, nil, nil, err
		}
		w.Programs[id] = p
		longIDs = append(longIDs, id)
		id++
	}
	for t := 0; t < cfg.ShortTxns; t++ {
		design := rng.Intn(cfg.Designs)
		j := rng.Intn(cfg.ItemsPerDesign)
		it := cadItem(design, j)
		src := fmt.Sprintf("program Short%d { %s := abs(%s) + %d; }", id, it, it, 1+rng.Intn(3))
		p, err := program.Parse(src)
		if err != nil {
			return nil, nil, nil, err
		}
		w.Programs[id] = p
		shortIDs = append(shortIDs, id)
		id++
	}
	return w, longIDs, shortIDs, nil
}

// CADResult aggregates one CAD run.
type CADResult struct {
	// Makespan is total ticks.
	Makespan int
	// ShortEnd / ShortWaits aggregate the short transactions'
	// completion ticks and blocked ticks.
	ShortEnd, ShortWaits Series
	// LongEnd aggregates long transactions' completion ticks.
	LongEnd Series
	// PWSR, Serializable, StronglyCorrect describe the schedule.
	PWSR, Serializable, StronglyCorrect bool
}

// RunCAD executes the workload under the given policy and verifies the
// schedule's correctness properties.
func RunCAD(w *gen.Workload, longIDs, shortIDs []int, policy exec.Policy) (*CADResult, error) {
	res, err := exec.RunCtx(context.TODO(), exec.Config{
		Programs: w.Programs,
		Initial:  w.Initial,
		Policy:   policy,
		DataSets: w.DataSets,
	})
	if err != nil {
		return nil, err
	}
	out := &CADResult{Makespan: res.Metrics.Ticks}
	for _, id := range shortIDs {
		out.ShortEnd.Add(res.Metrics.PerTxn[id].End)
		out.ShortWaits.Add(res.Metrics.PerTxn[id].Waits)
	}
	for _, id := range longIDs {
		out.LongEnd.Add(res.Metrics.PerTxn[id].End)
	}
	out.PWSR = core.CheckPWSR(res.Schedule, w.DataSets).PWSR
	out.Serializable = serial.IsCSR(res.Schedule)

	sys := core.NewSystem(w.IC, w.Schema)
	sc, err := sys.CheckStrongCorrectness(res.Schedule, w.Initial)
	if err != nil {
		return nil, err
	}
	out.StronglyCorrect = sc.StronglyCorrect
	return out, nil
}

// CADSweep runs the long-transaction-length sweep of experiment PERF1:
// for each span, the same workload under C2PL (serializable baseline)
// and PW2PL (PWSR), reporting short-transaction mean wait and mean
// completion. Repetitions average over seeds.
func CADSweep(spans []int, reps int, baseSeed int64) (*Table, error) {
	t := &Table{
		Title: "PERF1 — CAD/CAM long transactions: C2PL (serializable) vs PW2PL (PWSR)",
		Columns: []string{
			"span", "items/long-txn",
			"C2PL short-wait", "PW2PL short-wait",
			"C2PL short-end", "PW2PL short-end",
			"wait-ratio",
		},
		Notes: []string{
			"span = designs swept per long transaction; 4 components per design",
			"short-wait/short-end = mean blocked ticks / completion tick of short txns",
			"every PW2PL schedule verified PWSR and strongly correct (Theorem 1)",
		},
	}
	for _, span := range spans {
		var c2Wait, pwWait, c2End, pwEnd float64
		runs := 0
		for r := 0; r < reps; r++ {
			cfg := CADConfig{
				Designs:        span,
				ItemsPerDesign: 4,
				LongTxns:       2,
				LongSpan:       span,
				ShortTxns:      6,
				Seed:           baseSeed + int64(r),
			}
			w, longIDs, shortIDs, err := CADWorkload(cfg)
			if err != nil {
				return nil, err
			}
			c2, err := RunCAD(w, longIDs, shortIDs, sched.NewC2PL())
			if err != nil {
				return nil, err
			}
			pw, err := RunCAD(w, longIDs, shortIDs, sched.NewPW2PL())
			if err != nil {
				return nil, err
			}
			if !c2.StronglyCorrect || !pw.StronglyCorrect {
				return nil, fmt.Errorf("sim: CAD run not strongly correct (c2=%v pw=%v)",
					c2.StronglyCorrect, pw.StronglyCorrect)
			}
			if !pw.PWSR {
				return nil, fmt.Errorf("sim: PW2PL schedule not PWSR")
			}
			c2Wait += c2.ShortWaits.Mean()
			pwWait += pw.ShortWaits.Mean()
			c2End += c2.ShortEnd.Mean()
			pwEnd += pw.ShortEnd.Mean()
			runs++
		}
		n := float64(runs)
		ratio := 0.0
		if pwWait > 0 {
			ratio = c2Wait / pwWait
		}
		t.AddRow(
			fmt.Sprintf("%d", span),
			fmt.Sprintf("%d", span*4),
			fmt.Sprintf("%.1f", c2Wait/n),
			fmt.Sprintf("%.1f", pwWait/n),
			fmt.Sprintf("%.1f", c2End/n),
			fmt.Sprintf("%.1f", pwEnd/n),
			fmt.Sprintf("%.2fx", ratio),
		)
	}
	return t, nil
}
