// Command pwsrbench regenerates every table and figure of the
// reproduction's experiment index (see EXPERIMENTS.md):
//
//   - EX      — the paper's worked examples, measured,
//   - T1–T3   — randomized theorem validation and necessity campaigns,
//   - FIG1–7  — worked illustrations of the paper's figures,
//   - PERF1   — CAD/CAM long-transaction study (C2PL vs PW2PL),
//   - PERF2   — multidatabase local-serializability study,
//   - PERF3   — checker-cost scaling,
//   - PERF5   — certification scheduling: blocking vs optimistic
//     (abort/restart) vs locking,
//   - PERF7   — commit-and-compact memory study: a 1M-op windowed
//     admission stream through a compacting monitor against the
//     uncompacted baseline (section "compact"; `-compactout` writes
//     the machine-readable BENCH_compact.json curve),
//   - PERF8   — admission hot-path study: the scheduler-tick probe
//     loop with the generation-invalidated probe cache on and off,
//     across monitor variants and abort-churn regimes (section
//     "hotpath"; `-hotpathout` writes the machine-readable
//     BENCH_hotpath.json records),
//   - PERF9   — durable certification study: the same admission
//     stream unjournaled and write-ahead-journaled across backends
//     and group-commit windows, plus the recovery cost of each
//     written log (section "wal"; `-walout` writes the
//     machine-readable BENCH_wal.json records),
//   - PERF10  — block-parallel batch execution scaling: the
//     exec.ParallelEngine worker sweep (widths from `-cpu`, GOMAXPROCS
//     matched to each width) across conflict rates, every batch
//     certified through sched.OptimisticCertify over a
//     core.ShardedMonitor and checked identical to the serial reference
//     (section "parallel"; `-parallelout` writes the machine-readable
//     BENCH_parallel.json records, and `-baseline` gates the run
//     against a checked-in file: >`-maxregress`%% throughput
//     regression fails, as does a 4-worker 0%%-conflict speedup under
//     `-minspeedup` when the host has ≥4 CPUs; a baseline recorded on a
//     host with a different CPU count triggers a loud stderr warning
//     that only the speedup shape is being gated),
//   - PERF11  — multiversion snapshot reads: a mixed batch of hot-item
//     writers and scan readers, each conflict cell measured with the
//     readers certified through the gate and again declared read-only
//     and served from pinned snapshots that bypass certification
//     entirely, every bypass run re-proved PWSR (section "mvread";
//     `-mvreadout` writes the machine-readable BENCH_mvread.json
//     records).
//
// Every machine-readable file carries the host fingerprint — go
// version, GOOS/GOARCH, host_cpus (runtime.NumCPU) and gomaxprocs at
// process start — so a scaling claim can always be traced to the
// parallelism it was actually measured at.
//
// Usage:
//
//	pwsrbench [-trials 200] [-seed 1] [-quick] [-figures] [-section all]
//	          [-cpu 1,2,4,8]
//	          [-compactout BENCH_compact.json]
//	          [-hotpathout BENCH_hotpath.json]
//	          [-walout BENCH_wal.json]
//	          [-parallelout BENCH_parallel.json]
//	          [-chaosout BENCH_chaos.json]
//	          [-mvreadout BENCH_mvread.json]
//	          [-baseline BENCH_parallel.json] [-maxregress 10] [-minspeedup 1.5]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"pwsr/internal/experiments"
	"pwsr/internal/mdbs"
	"pwsr/internal/sim"
)

func main() {
	var (
		trials      = flag.Int("trials", 200, "trials per randomized campaign")
		seed        = flag.Int64("seed", 1, "base seed")
		quick       = flag.Bool("quick", false, "smaller sweeps and campaigns")
		figures     = flag.Bool("figures", true, "print the worked figure illustrations")
		section     = flag.String("section", "all", "one of: all, examples, theorems, exhaustive, figures, perf, compact, hotpath, wal, parallel, chaos, mvread")
		cpu         = flag.String("cpu", "1,2,4,8", "comma-separated worker counts for PERF10")
		compactout  = flag.String("compactout", "", "write the PERF7 records as JSON to this file")
		hotpathout  = flag.String("hotpathout", "", "write the PERF8 records as JSON to this file")
		walout      = flag.String("walout", "", "write the PERF9 records as JSON to this file")
		parallelout = flag.String("parallelout", "", "write the PERF10 records as JSON to this file")
		chaosout    = flag.String("chaosout", "", "write the ROBUST1 records as JSON to this file")
		mvreadout   = flag.String("mvreadout", "", "write the PERF11 records as JSON to this file")
		baseline    = flag.String("baseline", "", "checked-in PERF10 JSON to gate this run against")
		maxregress  = flag.Float64("maxregress", 10, "fail if PERF10 throughput regresses more than this percent vs -baseline")
		minspeedup  = flag.Float64("minspeedup", 1.5, "fail if the 4-worker 0%-conflict PERF10 speedup is below this (hosts with >=4 CPUs only)")
	)
	flag.Parse()

	if *quick {
		*trials = 40
	}
	cpus, err := parseCPUList(*cpu)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pwsrbench:", err)
		os.Exit(1)
	}
	opts := benchOpts{
		trials: *trials, seed: *seed, figures: *figures, section: *section,
		quick: *quick, cpus: cpus,
		compactout: *compactout, hotpathout: *hotpathout,
		walout: *walout, parallelout: *parallelout, chaosout: *chaosout,
		mvreadout: *mvreadout,
		baseline:  *baseline, maxregress: *maxregress, minspeedup: *minspeedup,
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "pwsrbench:", err)
		os.Exit(1)
	}
}

// benchOpts carries the parsed command line into run.
type benchOpts struct {
	trials      int
	seed        int64
	figures     bool
	section     string
	quick       bool
	cpus        []int
	compactout  string
	hotpathout  string
	walout      string
	parallelout string
	chaosout    string
	mvreadout   string
	baseline    string
	maxregress  float64
	minspeedup  float64
}

// parseCPUList parses the -cpu flag ("1,2,4,8").
func parseCPUList(s string) ([]int, error) {
	var cpus []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -cpu entry %q", part)
		}
		cpus = append(cpus, n)
	}
	return cpus, nil
}

// hostMeta is the host fingerprint stamped into every machine-readable
// benchmark file: toolchain, platform, host_cpus (runtime.NumCPU) and
// the process's starting GOMAXPROCS. Scaling numbers are meaningless
// without the parallelism they were measured at — a "4-worker" row
// recorded on a 1-core host measures goroutine multiplexing, not
// speedup — so the fingerprint travels with the records.
type hostMeta struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// currentHostMeta fingerprints the running process.
func currentHostMeta() hostMeta {
	return hostMeta{
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		HostCPUs:   runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// hotpathBenchFile is the JSON record set written for the PERF8
// admission hot-path study: probe-cache on/off passes per monitor
// variant and workload regime.
type hotpathBenchFile struct {
	hostMeta
	Seed    int64                       `json:"seed"`
	Ticks   int                         `json:"ticks"`
	Window  int                         `json:"window"`
	Records []experiments.HotPathRecord `json:"records"`
}

// walBenchFile is the JSON record set written for the PERF9 durable
// certification study: write-ahead journal overhead and recovery cost
// per backend and group-commit window.
type walBenchFile struct {
	hostMeta
	Seed    int64                   `json:"seed"`
	Steps   int                     `json:"steps"`
	Records []experiments.WalRecord `json:"records"`
}

// compactBenchFile is the JSON curve written for the PERF7 memory
// study: the compacting vs baseline live-transaction and heap
// trajectories over the sampled stream.
type compactBenchFile struct {
	hostMeta
	Seed     int64                          `json:"seed"`
	TotalOps int                            `json:"total_ops"`
	Window   int                            `json:"window"`
	Records  []experiments.CompactionRecord `json:"records"`
}

// parallelBenchFile is the JSON record set written for the PERF10
// block-parallel scaling sweep.
type parallelBenchFile struct {
	hostMeta
	Seed    int64                               `json:"seed"`
	Records []experiments.ParallelScalingRecord `json:"records"`
}

// chaosBenchFile is the JSON record set written for the ROBUST1 chaos
// differential: one record per seeded fault plan.
type chaosBenchFile struct {
	hostMeta
	Seed    int64                     `json:"seed"`
	Trials  int                       `json:"trials"`
	Records []experiments.ChaosRecord `json:"records"`
}

// mvreadBenchFile is the JSON record set written for the PERF11
// multiversion-read study: gate vs bypass reader throughput per
// conflict cell.
type mvreadBenchFile struct {
	hostMeta
	Seed    int64                      `json:"seed"`
	Records []experiments.MVReadRecord `json:"records"`
}

func run(o benchOpts) error {
	trials, seed, withFigures, section, quick, cpus := o.trials, o.seed, o.figures, o.section, o.quick, o.cpus
	compactout, hotpathout, walout := o.compactout, o.hotpathout, o.walout
	all := section == "all"

	if all || section == "examples" {
		tab, _, err := experiments.ExamplesTable()
		if err != nil {
			return err
		}
		fmt.Println(tab.Render())
	}

	if all || section == "theorems" {
		var campaigns []*experiments.Campaign
		for _, th := range []experiments.Theorem{experiments.Theorem1, experiments.Theorem2, experiments.Theorem3} {
			c, err := experiments.RunValidation(th, trials, seed)
			if err != nil {
				return err
			}
			campaigns = append(campaigns, c)
		}
		for _, th := range []experiments.Theorem{experiments.Theorem1, experiments.Theorem2, experiments.Theorem3} {
			c, err := experiments.RunNecessity(th, trials, seed+1000)
			if err != nil {
				return err
			}
			campaigns = append(campaigns, c)
		}
		repaired, err := experiments.RunRepairedNecessity(trials, seed+2000)
		if err != nil {
			return err
		}
		campaigns = append(campaigns, repaired)
		fmt.Println(experiments.CampaignTable(
			"T1–T3 — randomized theorem validation and necessity", campaigns...).Render())

		d2, err := experiments.RunDegree2VsPWSR(trials, seed+3000)
		if err != nil {
			return err
		}
		fmt.Println(experiments.Degree2Table(d2).Render())
	}

	if all || section == "exhaustive" {
		ex2, err := experiments.ExhaustiveExample2()
		if err != nil {
			return err
		}
		ex2b, err := experiments.ExhaustiveExample2Balanced()
		if err != nil {
			return err
		}
		ord, err := experiments.ExhaustiveOrdered(1)
		if err != nil {
			return err
		}
		ex5, err := experiments.ExhaustiveExample5()
		if err != nil {
			return err
		}
		fmt.Println(experiments.ExhaustiveTable(
			"EXH — exhaustive interleaving censuses (every schedule of each system)",
			ex2, ex2b, ord, ex5).Render())
	}

	if withFigures && (all || section == "figures") {
		for _, f := range experiments.Figures() {
			fmt.Println(f)
		}
	}

	if all || section == "perf" {
		spans := []int{2, 4, 6, 8}
		reps := 5
		sites := []int{2, 4, 8, 12}
		scaling := []int{2, 4, 8, 12}
		if quick {
			spans = []int{2, 4}
			reps = 2
			sites = []int{2, 4}
			scaling = []int{2, 4}
		}
		cad, err := sim.CADSweep(spans, reps, seed)
		if err != nil {
			return err
		}
		fmt.Println(cad.Render())

		md, err := mdbs.Sweep(sites, reps, seed)
		if err != nil {
			return err
		}
		fmt.Println(md.Render())

		sc, err := experiments.CheckerScaling(scaling, seed)
		if err != nil {
			return err
		}
		fmt.Println(sc.Render())

		policyTrials := trials
		if quick {
			policyTrials = 40
		}
		cp, err := experiments.CertifyPolicyStudy(policyTrials, seed)
		if err != nil {
			return err
		}
		fmt.Println(cp.Render())
	}

	if all || section == "compact" {
		totalOps, window := 1_000_000, 64
		if quick {
			totalOps = 100_000
		}
		tab, records, err := experiments.CompactionStudy(totalOps, window, seed)
		if err != nil {
			return err
		}
		fmt.Println(tab.Render())
		if compactout != "" {
			data, err := json.MarshalIndent(compactBenchFile{
				hostMeta: currentHostMeta(),
				Seed:     seed,
				TotalOps: totalOps,
				Window:   window,
				Records:  records,
			}, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(compactout, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %d PERF7 records to %s\n", len(records), compactout)
		}
	}
	if all || section == "hotpath" {
		ticks, window := 60_000, 16
		if quick {
			ticks = 10_000
		}
		tab, records, err := experiments.HotPathStudy(ticks, window, seed)
		if err != nil {
			return err
		}
		fmt.Println(tab.Render())
		if hotpathout != "" {
			data, err := json.MarshalIndent(hotpathBenchFile{
				hostMeta: currentHostMeta(),
				Seed:     seed,
				Ticks:    ticks,
				Window:   window,
				Records:  records,
			}, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(hotpathout, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %d PERF8 records to %s\n", len(records), hotpathout)
		}
	}
	if all || section == "wal" {
		steps := 150_000
		if quick {
			steps = 30_000
		}
		tab, records, err := experiments.WalStudy(steps, seed)
		if err != nil {
			return err
		}
		fmt.Println(tab.Render())
		if walout != "" {
			data, err := json.MarshalIndent(walBenchFile{
				hostMeta: currentHostMeta(),
				Seed:     seed,
				Steps:    steps,
				Records:  records,
			}, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(walout, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %d PERF9 records to %s\n", len(records), walout)
		}
	}
	if all || section == "parallel" {
		tab, records, err := experiments.ParallelScalingStudy(cpus, seed, quick)
		if err != nil {
			return err
		}
		fmt.Println(tab.Render())
		if o.parallelout != "" {
			data, err := json.MarshalIndent(parallelBenchFile{
				hostMeta: currentHostMeta(),
				Seed:     seed,
				Records:  records,
			}, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(o.parallelout, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %d PERF10 records to %s\n", len(records), o.parallelout)
		}
		if o.baseline != "" {
			if err := gateParallel(records, o.baseline, o.maxregress, o.minspeedup); err != nil {
				return err
			}
		}
	}
	if all || section == "chaos" {
		chaosTrials := 200
		if quick {
			chaosTrials = 50
		}
		tab, records, err := experiments.ChaosStudy(chaosTrials, seed)
		if err != nil {
			return err
		}
		fmt.Println(tab.Render())
		if o.chaosout != "" {
			data, err := json.MarshalIndent(chaosBenchFile{
				hostMeta: currentHostMeta(),
				Seed:     seed,
				Trials:   chaosTrials,
				Records:  records,
			}, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(o.chaosout, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %d ROBUST1 records to %s\n", len(records), o.chaosout)
		}
	}
	if all || section == "mvread" {
		tab, records, err := experiments.MVReadStudy(seed, quick)
		if err != nil {
			return err
		}
		fmt.Println(tab.Render())
		if o.mvreadout != "" {
			data, err := json.MarshalIndent(mvreadBenchFile{
				hostMeta: currentHostMeta(),
				Seed:     seed,
				Records:  records,
			}, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(o.mvreadout, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %d PERF11 records to %s\n", len(records), o.mvreadout)
		}
	}
	return nil
}

// gateParallel compares a fresh PERF10 run against a checked-in
// baseline file and fails the process on regression. Only the
// 0%-conflict cells are gated: they are the engine hot-path scaling
// claim, while the contended cells' retry counts (and so their
// throughput) swing with scheduling nondeterminism and would make the
// gate flaky. Absolute throughput is only compared when the baseline
// was recorded on a host with the same CPU count — across hosts only
// the speedup shape is comparable — and the minimum-speedup bar (the
// honest-scaling acceptance: ≥ minSpeedup at 4 workers, 0% conflict)
// is enforced only when the running host actually has 4 CPUs to scale
// onto.
func gateParallel(records []experiments.ParallelScalingRecord, baselinePath string, maxRegressPct, minSpeedup float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("parallel baseline: %w", err)
	}
	var base parallelBenchFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parallel baseline %s: %w", baselinePath, err)
	}
	sameHostShape := base.HostCPUs == runtime.NumCPU()
	if !sameHostShape {
		fmt.Fprintf(os.Stderr,
			"pwsrbench: WARNING: baseline %s was recorded on a %d-CPU host; this host has %d.\n"+
				"pwsrbench: WARNING: absolute txns/s are NOT comparable across hosts — gating on the speedup SHAPE only.\n"+
				"pwsrbench: WARNING: re-record the baseline on this host (make bench-parallel) to restore absolute-throughput gating.\n",
			baselinePath, base.HostCPUs, runtime.NumCPU())
	}
	baseByCell := make(map[[2]int]experiments.ParallelScalingRecord, len(base.Records))
	for _, r := range base.Records {
		baseByCell[[2]int{r.Workers, r.ConflictPct}] = r
	}
	var failures []string
	for _, r := range records {
		if r.ConflictPct != 0 {
			continue
		}
		b, ok := baseByCell[[2]int{r.Workers, r.ConflictPct}]
		if !ok {
			continue
		}
		if sameHostShape {
			floor := b.TxnsPerSec * (1 - maxRegressPct/100)
			if r.TxnsPerSec < floor {
				failures = append(failures, fmt.Sprintf(
					"workers=%d conflict=%d%%: %.0f txns/s vs baseline %.0f (-%.1f%%, allowed %.1f%%)",
					r.Workers, r.ConflictPct, r.TxnsPerSec, b.TxnsPerSec,
					100*(1-r.TxnsPerSec/b.TxnsPerSec), maxRegressPct))
			}
		} else if b.Speedup > 0 {
			floor := b.Speedup * (1 - maxRegressPct/100)
			if r.Speedup < floor {
				failures = append(failures, fmt.Sprintf(
					"workers=%d conflict=%d%%: speedup %.2f× vs baseline %.2f× (host CPU count differs: %d vs %d, comparing shape only)",
					r.Workers, r.ConflictPct, r.Speedup, b.Speedup, runtime.NumCPU(), base.HostCPUs))
			}
		}
		if r.Workers == 4 && r.ConflictPct == 0 && runtime.NumCPU() >= 4 && r.Speedup < minSpeedup {
			failures = append(failures, fmt.Sprintf(
				"workers=4 conflict=0%%: speedup %.2f× under the %.2f× bar on a %d-CPU host",
				r.Speedup, minSpeedup, runtime.NumCPU()))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("parallel regression gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	if sameHostShape {
		fmt.Printf("parallel regression gate passed vs %s (max regression %.1f%%)\n", baselinePath, maxRegressPct)
	} else {
		fmt.Printf("parallel regression gate passed vs %s (SPEEDUP SHAPE ONLY — see warning above; max regression %.1f%%)\n", baselinePath, maxRegressPct)
	}
	return nil
}
