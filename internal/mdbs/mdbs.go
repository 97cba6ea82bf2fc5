// Package mdbs simulates the multidatabase application of the paper's
// Section 4 (and reference [4]): autonomous sites, each with purely
// local integrity constraints and its own serializability guarantee.
// The global schedule of such a system is PWSR with respect to the
// per-site partition (the "local serializability" / LSR criterion), so
// the paper's theorems tell exactly when global consistency follows
// without any global concurrency control.
//
// Each site holds a set of accounts with a conservation constraint
// (the account values sum to a site constant); transactions are
// straight-line transfers, so Theorem 1 applies to every PWSR schedule
// and the no-global-control execution is provably strongly correct.
package mdbs

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
	"pwsr/internal/sim"
	"pwsr/internal/state"
)

// Config parameterizes the multidatabase workload.
type Config struct {
	// Sites is the number of autonomous DBMSs (default 3).
	Sites int
	// AccountsPerSite is the number of accounts per site (default 3).
	AccountsPerSite int
	// GlobalTxns is the number of global transactions, each issuing a
	// transfer at SitesPerTxn consecutive sites (default 2).
	GlobalTxns int
	// SitesPerTxn is the span of each global transaction (default 2).
	SitesPerTxn int
	// LocalTxns is the number of single-site transactions (default 4).
	LocalTxns int
	// Seed drives randomness.
	Seed int64
}

func (c *Config) defaults() {
	if c.Sites <= 0 {
		c.Sites = 3
	}
	if c.AccountsPerSite <= 0 {
		c.AccountsPerSite = 3
	}
	if c.GlobalTxns <= 0 {
		c.GlobalTxns = 2
	}
	if c.SitesPerTxn <= 0 || c.SitesPerTxn > c.Sites {
		c.SitesPerTxn = 2
		if c.SitesPerTxn > c.Sites {
			c.SitesPerTxn = c.Sites
		}
	}
	if c.LocalTxns <= 0 {
		c.LocalTxns = 4
	}
}

// account names account j at site i.
func account(i, j int) string { return fmt.Sprintf("s%da%d", i, j) }

// siteTotal is every site's conserved sum.
const siteTotal = 10

// Workload builds the multidatabase workload: one conservation
// conjunct per site (Σ accounts = siteTotal) and transfer programs.
// Returned along with the workload are the global and local
// transaction ids.
func Workload(cfg Config) (*gen.Workload, []int, []int, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	var srcs []string
	var items []string
	initial := state.NewDB()
	for i := 0; i < cfg.Sites; i++ {
		var sum []string
		remaining := int64(siteTotal)
		for j := 0; j < cfg.AccountsPerSite; j++ {
			it := account(i, j)
			items = append(items, it)
			sum = append(sum, it)
			var v int64
			if j == cfg.AccountsPerSite-1 {
				v = remaining
			} else {
				v = int64(rng.Intn(4))
				remaining -= v
			}
			initial.Set(it, state.Int(v))
		}
		srcs = append(srcs, fmt.Sprintf("%s = %d", strings.Join(sum, " + "), siteTotal))
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

	// transfer emits a sum-preserving transfer between two distinct
	// accounts of site i.
	transfer := func(b *strings.Builder, i int) {
		j := rng.Intn(cfg.AccountsPerSite)
		k := (j + 1 + rng.Intn(cfg.AccountsPerSite-1)) % cfg.AccountsPerSite
		amt := 1 + rng.Intn(3)
		from, to := account(i, j), account(i, k)
		fmt.Fprintf(b, "%s := %s - %d;\n%s := %s + %d;\n", from, from, amt, to, to, amt)
	}

	var globalIDs, localIDs []int
	id := 1
	for t := 0; t < cfg.GlobalTxns; t++ {
		start := 0
		if cfg.Sites > cfg.SitesPerTxn {
			start = rng.Intn(cfg.Sites - cfg.SitesPerTxn + 1)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "program Global%d {\n", id)
		for i := start; i < start+cfg.SitesPerTxn; i++ {
			transfer(&b, i)
		}
		b.WriteString("}\n")
		p, err := program.Parse(b.String())
		if err != nil {
			return nil, nil, nil, err
		}
		w.Programs[id] = p
		globalIDs = append(globalIDs, id)
		id++
	}
	for t := 0; t < cfg.LocalTxns; t++ {
		var b strings.Builder
		fmt.Fprintf(&b, "program Local%d {\n", id)
		transfer(&b, rng.Intn(cfg.Sites))
		b.WriteString("}\n")
		p, err := program.Parse(b.String())
		if err != nil {
			return nil, nil, nil, err
		}
		w.Programs[id] = p
		localIDs = append(localIDs, id)
		id++
	}
	return w, globalIDs, localIDs, nil
}

// Result aggregates one multidatabase run.
type Result struct {
	// Makespan is total ticks.
	Makespan int
	// LocalWaits / GlobalWaits aggregate blocked ticks.
	LocalWaits, GlobalWaits sim.Series
	// LSR reports local serializability: every site projection
	// serializable (global schedule PWSR over the site partition).
	LSR bool
	// Serializable reports global conflict serializability.
	Serializable bool
	// StronglyCorrect reports Definition 1 for the run.
	StronglyCorrect bool
}

// Run executes the workload under the given policy. Policy
// sched.NewPW2PL() models autonomous sites: per-site strict locking
// with no coordination across sites. Policy sched.NewC2PL() models a
// global lock manager.
func Run(w *gen.Workload, globalIDs, localIDs []int, policy exec.Policy) (*Result, error) {
	res, err := exec.RunCtx(context.TODO(), exec.Config{
		Programs: w.Programs,
		Initial:  w.Initial,
		Policy:   policy,
		DataSets: w.DataSets,
	})
	if err != nil {
		return nil, err
	}
	out := &Result{Makespan: res.Metrics.Ticks}
	for _, id := range localIDs {
		out.LocalWaits.Add(res.Metrics.PerTxn[id].Waits)
	}
	for _, id := range globalIDs {
		out.GlobalWaits.Add(res.Metrics.PerTxn[id].Waits)
	}
	out.LSR = core.CheckPWSR(res.Schedule, w.DataSets).PWSR
	out.Serializable = serial.IsCSR(res.Schedule)

	sys := core.NewSystem(w.IC, w.Schema)
	sc, err := sys.CheckStrongCorrectness(res.Schedule, w.Initial)
	if err != nil {
		return nil, err
	}
	out.StronglyCorrect = sc.StronglyCorrect
	return out, nil
}

// Sweep runs experiment PERF2: scaling the number of sites, comparing
// local-only control (PW2PL = LSR) against a global lock manager
// (C2PL), reporting makespan and mean waits.
func Sweep(sites []int, reps int, baseSeed int64) (*sim.Table, error) {
	t := &sim.Table{
		Title: "PERF2 — MDBS: local-only control (LSR/PWSR) vs coordinated global 2PL",
		Columns: []string{
			"sites", "local makespan", "global makespan",
			"gtxn-wait local", "gtxn-wait global", "speedup",
		},
		Notes: []string{
			"local-only = per-site strict locking, no global coordination (schedule is LSR = PWSR)",
			"global = one conservative 2PL lock manager; multi-site lock acquisition pays 3 coordination ticks per extra site",
			"every local-only schedule verified PWSR and strongly correct (Theorem 1)",
		},
	}
	for _, n := range sites {
		var lMake, gMake, lWait, gWait float64
		runs := 0
		for r := 0; r < reps; r++ {
			cfg := Config{
				Sites:       n,
				GlobalTxns:  2,
				SitesPerTxn: min(2, n),
				LocalTxns:   2 * n,
				Seed:        baseSeed + int64(r),
			}
			w, gIDs, lIDs, err := Workload(cfg)
			if err != nil {
				return nil, err
			}
			local, err := Run(w, gIDs, lIDs, sched.NewPW2PL())
			if err != nil {
				return nil, err
			}
			coordinated := sched.NewC2PL()
			coordinated.CoordCostPerExtraSet = 3
			global, err := Run(w, gIDs, lIDs, coordinated)
			if err != nil {
				return nil, err
			}
			if !local.LSR || !local.StronglyCorrect {
				return nil, fmt.Errorf("mdbs: local-only run lsr=%v sc=%v", local.LSR, local.StronglyCorrect)
			}
			lMake += float64(local.Makespan)
			gMake += float64(global.Makespan)
			lWait += local.GlobalWaits.Mean()
			gWait += global.GlobalWaits.Mean()
			runs++
		}
		nn := float64(runs)
		speedup := 0.0
		if lMake > 0 {
			speedup = gMake / lMake
		}
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", lMake/nn),
			fmt.Sprintf("%.1f", gMake/nn),
			fmt.Sprintf("%.1f", lWait/nn),
			fmt.Sprintf("%.1f", gWait/nn),
			fmt.Sprintf("%.2fx", speedup),
		)
	}
	return t, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
