// Command pwsrbench regenerates every table and figure of the
// reproduction's experiment index (see EXPERIMENTS.md):
//
//   - EX      — the paper's worked examples, measured,
//   - T1–T3   — randomized theorem validation and necessity campaigns,
//   - FIG1–7  — worked illustrations of the paper's figures,
//   - PERF1   — CAD/CAM long-transaction study (C2PL vs PW2PL),
//   - PERF2   — multidatabase local-serializability study,
//   - PERF3   — checker-cost scaling,
//   - PERF5   — certification scheduling: the optimistic
//     (abort/restart) gate vs locking,
//   - PERF7   — commit-and-compact memory study: a 1M-op windowed
//     admission stream through a compacting monitor against the
//     uncompacted baseline (section "compact"),
//   - PERF9   — durable certification study: the same admission
//     stream unjournaled and write-ahead-journaled across backends
//     and group-commit windows, plus the recovery cost of each
//     written log (section "wal").
//
// `-out FILE` writes the records of the one selected section as JSON —
// only "compact" and "wal" have records, and the
// Makefile keeps them in BENCH_<section>.json. Every file carries the
// host fingerprint: go version, GOOS/GOARCH, host_cpus
// (runtime.NumCPU) and gomaxprocs at process start. An unknown
// -section, -out with a section that has no records, or -trials below
// 1 fails before anything runs.
//
// Usage:
//
//	pwsrbench [-trials 200] [-seed 1] [-quick] [-figures] [-section all]
//	          [-out BENCH_<section>.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"

	"pwsr/internal/experiments"
	"pwsr/internal/mdbs"
	"pwsr/internal/sim"
)

func main() {
	var o benchOpts
	flag.IntVar(&o.trials, "trials", 200, "trials per randomized campaign")
	flag.Int64Var(&o.seed, "seed", 1, "base seed")
	flag.BoolVar(&o.quick, "quick", false, "smaller sweeps and campaigns")
	flag.BoolVar(&o.figures, "figures", true, "print the worked figure illustrations")
	flag.StringVar(&o.section, "section", "all", "one of: "+strings.Join(sections, ", "))
	flag.StringVar(&o.out, "out", "", "write the section's records as JSON to this file (sections "+strings.Join(outSections, ", ")+")")
	flag.Parse()

	if o.quick {
		o.trials = 40
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "pwsrbench:", err)
		os.Exit(1)
	}
}

// sections lists the -section values.
var sections = []string{"all", "examples", "theorems", "exhaustive", "figures", "perf", "compact", "wal"}

// outSections lists the sections whose records -out can write.
var outSections = []string{"compact", "wal"}

// benchOpts carries the parsed command line into run.
type benchOpts struct {
	trials  int
	seed    int64
	figures bool
	section string
	quick   bool
	out     string
}

// check rejects an unknown section, -out with a section that writes no
// records, and a trial count below one.
func (o benchOpts) check() error {
	if !slices.Contains(sections, o.section) {
		return fmt.Errorf("unknown -section %q (want one of %s)", o.section, strings.Join(sections, ", "))
	}
	if o.out != "" && !slices.Contains(outSections, o.section) {
		return fmt.Errorf("-out needs -section %s, not %q", strings.Join(outSections, ", "), o.section)
	}
	if o.trials < 1 {
		return fmt.Errorf("-trials %d is below 1", o.trials)
	}
	return nil
}

// hostMeta is the host fingerprint stamped into every machine-readable
// benchmark file: toolchain, platform, host_cpus (runtime.NumCPU) and
// the process's starting GOMAXPROCS, so a timing can always be traced
// to the machine and parallelism it was measured at.
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

// writeRecords writes file, a study's n records with their run
// parameters, as indented JSON to path and says so; an empty path
// writes nothing.
func writeRecords(path, study string, n int, file any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d %s records to %s\n", n, study, path)
	return nil
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

func run(o benchOpts) error {
	if err := o.check(); err != nil {
		return err
	}
	trials, seed, withFigures, section, quick := o.trials, o.seed, o.figures, o.section, o.quick
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
		if err := writeRecords(o.out, "PERF7", len(records), compactBenchFile{
			hostMeta: currentHostMeta(),
			Seed:     seed,
			TotalOps: totalOps,
			Window:   window,
			Records:  records,
		}); err != nil {
			return err
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
		if err := writeRecords(o.out, "PERF9", len(records), walBenchFile{
			hostMeta: currentHostMeta(),
			Seed:     seed,
			Steps:    steps,
			Records:  records,
		}); err != nil {
			return err
		}
	}
	return nil
}
