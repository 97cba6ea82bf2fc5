// Command pwsrfuzz searches randomized workloads for strong-correctness
// violations, reproducing the paper's necessity arguments at scale and
// serving as a regression fuzzer for the checkers and schedulers.
//
// Modes:
//
//	example2    the Example 2 family under raw random interleavings:
//	            PWSR violations are EXPECTED (Theorem 1/2/3 necessity);
//	fixed       fixed-structure workloads: every PWSR schedule must be
//	            strongly correct (a found violation is a bug);
//	dr          Example 2 family behind the delayed-read gate: no
//	            violations may appear (Theorem 2);
//	ordered     ordered-access workloads: no violations may appear
//	            (Theorem 3);
//	optimistic  arbitrary-structure workloads under the abort-capable
//	            certification gate: runs must neither stall nor violate
//	            strong correctness (PWSR ∧ DR, Theorem 2);
//	compact     the transaction lifecycle: the checked-in corpus under
//	            testdata/compact (Observe/Commit/Retract/Compact
//	            scripts covering commit-before-violation,
//	            compact-across-retract, watermark-at-shard-boundary,
//	            and pinned-by-live-ancestor shapes) is replayed through
//	            the compacting Monitor, the ReferenceMonitor rebuild
//	            spec, and an uncompacted Monitor, which must agree on
//	            verdicts, op counts, live populations, lifecycle
//	            counters, and live-edge sets; then randomized lifecycle
//	            scripts fuzz
//	            the same differential (FuzzCommitCompact is the native
//	            testing.F harness over the same corpus);
//	cancel      the cancellation differential: the checked-in corpus
//	            under testdata/cancel (JSON cases as dumped by a failed
//	            cancel matrix, each arming one deterministic cancel
//	            point at an admission tick, journal write/sync, commit
//	            turn, or drain step) is replayed first, then randomized
//	            trials sweep fresh cancel points; no trial may produce
//	            a partial grant, lose a journaled admission, confuse
//	            cancellation with a denial, or fail to recover to a
//	            verdict-identical monitor (the matrix safety bar);
//	mvread      the multiversion read path: the checked-in corpus under
//	            testdata/mvread (generator config + gate shape + reader
//	            begin ticks, covering the aborting optimistic fixture,
//	            spread readers, and begins at 0 and beyond the run), then
//	            randomized mixed workloads; each case runs with and
//	            without declared read-only scans and must keep every
//	            bypass obligation — readers never denied or aborted,
//	            the read-write projection identical to the reader-free
//	            run, the combined spliced schedule PWSR, and its replay
//	            value-consistent (so no snapshot ever exposes an
//	            aborted writer's effects).
//
// Parser/round-trip fuzzing lives in the native testing.F harnesses
// (txn.FuzzParseSchedule, constraint.FuzzParseIC and friends, with
// checked-in corpora under testdata/fuzz); this command fuzzes at
// workload granularity.
//
// Usage:
//
//	pwsrfuzz -mode example2 -trials 500 -seed 7 [-v]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/sched"
	"pwsr/internal/serial"
	"pwsr/internal/txn"
)

func main() {
	var (
		mode    = flag.String("mode", "example2", strings.Join(modes, " | "))
		trials  = flag.Int("trials", 500, "number of seeded trials (0 replays the corpus only)")
		seed    = flag.Int64("seed", 7, "base seed")
		verbose = flag.Bool("v", false, "print each violation's schedule and programs")
	)
	flag.Parse()

	found, err := run(*mode, *trials, *seed, *verbose)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pwsrfuzz:", err)
		os.Exit(1)
	}
	expectViolations := *mode == "example2"
	switch {
	case expectViolations && found == 0:
		fmt.Println("UNEXPECTED: no violations found in the necessity population")
		os.Exit(1)
	case !expectViolations && found > 0:
		fmt.Printf("BUG: %d violations in a population a theorem guarantees\n", found)
		os.Exit(1)
	default:
		fmt.Printf("ok: %d violations in %d trials (expected %s)\n",
			found, *trials, map[bool]string{true: "> 0", false: "= 0"}[expectViolations])
	}
}

// modes lists the -mode values.
var modes = []string{"example2", "fixed", "dr", "ordered", "optimistic", "compact", "mvread", "cancel"}

func run(mode string, trials int, baseSeed int64, verbose bool) (int, error) {
	if !slices.Contains(modes, mode) {
		return 0, fmt.Errorf("unknown mode %q (want one of %s)", mode, strings.Join(modes, ", "))
	}
	if trials < 0 {
		return 0, fmt.Errorf("-trials %d is negative", trials)
	}
	switch mode {
	case "compact":
		return runCompact(trials, baseSeed, verbose)
	case "mvread":
		return runMVRead(trials, baseSeed, verbose)
	case "cancel":
		return runCancel(trials, baseSeed, verbose)
	}
	found := 0
	for i := 0; i < trials; i++ {
		seed := baseSeed + int64(i)
		var (
			w      *gen.Workload
			policy exec.Policy
			err    error
			// guard is the extra hypothesis a trial must satisfy for a
			// violation to count against (or for) a theorem.
			guard func(o *outcome) bool
		)
		switch mode {
		case "example2":
			w, err = gen.Example2Family(1, seed)
			policy = sched.NewRandom(seed)
			guard = func(o *outcome) bool { return o.pwsr }
		case "fixed":
			w, err = gen.Generate(gen.Config{
				Conjuncts: 3, Programs: 3, MovesPerProgram: 2,
				Style: gen.StyleFixed, Seed: seed,
			})
			policy = sched.NewRandom(seed)
			guard = func(o *outcome) bool { return o.pwsr }
		case "dr":
			w, err = gen.Example2Family(1, seed)
			policy = &sched.DelayedRead{Inner: sched.NewRandom(seed)}
			guard = func(o *outcome) bool { return o.pwsr && o.dr }
		case "ordered":
			w, err = gen.Generate(gen.Config{
				Conjuncts: 3, Programs: 3, MovesPerProgram: 3,
				Style: gen.StyleOrdered, Seed: seed,
			})
			policy = sched.NewRandom(seed)
			guard = func(o *outcome) bool { return o.pwsr && o.dagAcyclic }
		case "optimistic":
			w, err = gen.Generate(gen.Config{
				Conjuncts: 3, Programs: 4, MovesPerProgram: 2,
				Style: gen.Style(i % 3), Seed: seed,
			})
			if err == nil {
				policy = sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(seed), nil)
			}
			// The gate produces PWSR ∧ DR schedules: Theorem 2 applies
			// unconditionally, so every completed run must be strongly
			// correct — and the gate must complete every run.
			guard = func(o *outcome) bool { return true }
		}
		if err != nil {
			return 0, err
		}

		o, err := trial(w, policy)
		if err != nil {
			return 0, err
		}
		if o == nil { // stalled
			if mode == "optimistic" {
				return 0, fmt.Errorf("optimistic gate stalled at seed %d", seed)
			}
			continue
		}
		if mode == "optimistic" && (!o.pwsr || !o.dr) {
			return 0, fmt.Errorf("optimistic gate broke its construction at seed %d (pwsr=%v dr=%v)",
				seed, o.pwsr, o.dr)
		}
		if guard(o) && !o.stronglyCorrect {
			found++
			if verbose {
				fmt.Printf("violation at seed %d:\n  IC: %s\n  initial: %s\n  schedule: %s\n",
					seed, w.IC, w.Initial, o.schedule)
				for id, p := range w.Programs {
					fmt.Printf("  TP%d:\n%s", id, p)
				}
				for _, v := range o.violations {
					fmt.Printf("  %s\n", v)
				}
			}
		}
	}
	return found, nil
}

type outcome struct {
	pwsr, dr, dagAcyclic, serializable, stronglyCorrect bool

	schedule   fmt.Stringer
	recorded   *txn.Schedule
	violations []string
}

func trial(w *gen.Workload, policy exec.Policy) (*outcome, error) {
	res, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: w.Programs,
		Initial:  w.Initial,
		Policy:   policy,
		DataSets: w.DataSets,
	})
	if err != nil {
		if errors.Is(err, exec.ErrStall) {
			return nil, nil
		}
		return nil, err
	}
	sys := core.NewSystem(w.IC, w.Schema)
	o := &outcome{
		pwsr:         core.CheckPWSR(res.Schedule, w.DataSets).PWSR,
		dr:           res.Schedule.IsDelayedRead(),
		dagAcyclic:   sys.DataAccessGraph(res.Schedule).Acyclic(),
		serializable: serial.IsCSR(res.Schedule),
		schedule:     res.Schedule,
		recorded:     res.Schedule,
	}
	sc, err := sys.CheckStrongCorrectness(res.Schedule, w.Initial)
	if err != nil {
		return nil, err
	}
	o.stronglyCorrect = sc.StronglyCorrect
	o.violations = sc.Violations()
	return o, nil
}
