package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/sim"
	"pwsr/internal/state"
)

// ParallelScalingRecord is one measurement of the PERF10 worker sweep,
// in the machine-readable shape cmd/pwsrbench writes to
// BENCH_parallel.json. Speedup is throughput normalized to the sweep's
// first worker count at the same conflict rate, so curves recorded on
// hosts with different clock speeds stay comparable.
type ParallelScalingRecord struct {
	// Workers is the engine worker-pool size of the measurement.
	Workers int `json:"workers"`
	// GOMAXPROCS is the runtime parallelism the measurement ran at
	// (set equal to Workers for the honest per-core curve).
	GOMAXPROCS int `json:"gomaxprocs"`
	// ConflictPct is the share of programs read-modify-writing the
	// shared hot item (0 = fully independent batch).
	ConflictPct int `json:"conflict_pct"`
	// Txns is the batch size.
	Txns int `json:"txns"`
	// Ops is the committed-operation count of the batch.
	Ops int `json:"ops"`
	// NsPerTxn is the best-of-reps wall-clock cost per transaction,
	// execution and certification included.
	NsPerTxn float64 `json:"ns_per_txn"`
	// TxnsPerSec is the corresponding batch throughput.
	TxnsPerSec float64 `json:"txns_per_sec"`
	// Speedup is TxnsPerSec over the sweep's first worker count at the
	// same conflict rate.
	Speedup float64 `json:"speedup"`
	// Retries and Conflicts are the speculation-cost counters of the
	// best-of-reps run's final repetition (see exec.Metrics).
	Retries   int `json:"retries"`
	Conflicts int `json:"conflicts"`
}

// parallelWorkload is one PERF10 batch: spin-loop programs over
// per-transaction private items, a conflictPct share of them also
// read-modify-writing one shared hot item.
type parallelWorkload struct {
	programs  map[int]*program.Program
	initial   state.DB
	partition []state.ItemSet
}

// newParallelWorkload builds the batch. Every program performs spin
// iterations of pure local compute between its first read and its
// write — the CPU-bound region that gives a worker pool something to
// overlap — then increments its private item; a conflictPct share
// additionally increments the hot item "h", which serializes their
// version validations.
func newParallelWorkload(txns, spin, conflictPct int, seed int64) *parallelWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := &parallelWorkload{
		programs: make(map[int]*program.Program, txns),
		initial:  state.DB{},
	}
	const privateConjuncts = 8
	private := make([]state.ItemSet, privateConjuncts)
	for i := range private {
		private[i] = state.NewItemSet()
	}
	for i := 1; i <= txns; i++ {
		item := fmt.Sprintf("x%d", i)
		private[i%privateConjuncts].Add(item)
		w.initial.Set(item, state.Int(int64(i)))
		hot := ""
		if rng.Intn(100) < conflictPct {
			hot = "  h := h + 1;\n"
		}
		src := fmt.Sprintf(
			"program T%d {\n  let v := %s;\n  let spin := %d;\n  while (spin > 0) { spin := spin - 1; }\n  %s := v + 1;\n%s}\n",
			i, item, spin, item, hot)
		w.programs[i] = program.MustParse(src)
	}
	w.initial.Set("h", state.Int(0))
	w.partition = append(private, state.NewItemSet("h"))
	return w
}

// ParallelScalingStudy runs the PERF10 sweep: batch throughput of
// exec.ParallelEngine at each requested worker count (GOMAXPROCS set
// to match, so the curve is per-core honest), across conflict rates,
// every admission flowing through a sched.OptimisticCertify gate over a
// core.ShardedMonitor. Each measured batch is also checked against an
// ascending-id serial run through the tick engine — schedule and final
// state must be identical, so the numbers are throughput of the
// certified deterministic execution, not of a weaker mode. GOMAXPROCS
// is restored on return.
//
// Interpreting the numbers: on a host with enough cores the 0%%
// conflict rows should approach linear speedup (programs are
// CPU-bound and independent); rising conflict rates convert
// speculation into retries, and the Retries/Conflicts columns show
// the price. On a 1-core host every width ≥ 2 measures multiplexing
// overhead only — which the record's gomaxprocs field now states
// outright.
func ParallelScalingStudy(workers []int, seed int64, quick bool) (*sim.Table, []ParallelScalingRecord, error) {
	txns, spin, reps := 96, 4000, 5
	if quick {
		txns, spin, reps = 24, 500, 2
	}
	conflicts := []int{0, 20, 50}
	if quick {
		conflicts = []int{0, 50}
	}

	t := &sim.Table{
		Title: "PERF10 — block-parallel batch execution scaling (worker sweep)",
		Columns: []string{
			"conflict%", "workers", "gomaxprocs", "txns", "ops", "time",
			"txns/s", fmt.Sprintf("vs w=%d", workers[0]), "retries", "conflicts",
		},
		Notes: []string{
			fmt.Sprintf("host CPUs: %d; batch: %d spin-%d programs, certification via OptimisticCertify over a ShardedMonitor",
				runtime.NumCPU(), txns, spin),
			"every batch checked schedule- and state-identical to the ascending-id serial run",
		},
	}

	var records []ParallelScalingRecord
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, pct := range conflicts {
		w := newParallelWorkload(txns, spin, pct, seed+int64(pct))
		serialGate := sched.NewOptimisticCertifyOver(core.NewShardedMonitor(w.partition, len(w.partition)), &sched.Serial{}, nil)
		want, err := exec.RunCtx(context.TODO(), exec.Config{
			Programs: w.programs,
			Initial:  w.initial,
			Policy:   serialGate,
			DataSets: w.partition,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("parallel study: serial reference (conflict %d%%): %w", pct, err)
		}
		var base float64
		for _, width := range workers {
			runtime.GOMAXPROCS(width)
			var res *exec.Result
			d := bestOf(reps, func() {
				gate := sched.NewOptimisticCertifyOver(core.NewShardedMonitor(w.partition, len(w.partition)), &sched.Serial{}, nil)
				r, err := exec.RunParallelCtx(context.TODO(), exec.ParallelConfig{
					Initial: w.initial,
					Gate:    gate,
					Workers: width,
				}, w.programs)
				if err != nil {
					panic(fmt.Sprintf("parallel study: workers=%d conflict=%d%%: %v", width, pct, err))
				}
				res = r
			})
			if res.Schedule.String() != want.Schedule.String() || !res.Final.Equal(want.Final) {
				return nil, nil, fmt.Errorf("parallel study: workers=%d conflict=%d%%: diverged from serial reference", width, pct)
			}
			txnsPerSec := float64(txns) / d.Seconds()
			if base == 0 {
				base = txnsPerSec
			}
			rec := ParallelScalingRecord{
				Workers:     width,
				GOMAXPROCS:  width,
				ConflictPct: pct,
				Txns:        txns,
				Ops:         res.Metrics.Ticks,
				NsPerTxn:    float64(d.Nanoseconds()) / float64(txns),
				TxnsPerSec:  txnsPerSec,
				Speedup:     txnsPerSec / base,
				Retries:     res.Metrics.Retries,
				Conflicts:   res.Metrics.Conflicts,
			}
			records = append(records, rec)
			t.AddRow(
				fmt.Sprintf("%d", pct),
				fmt.Sprintf("%d", width),
				fmt.Sprintf("%d", width),
				fmt.Sprintf("%d", txns),
				fmt.Sprintf("%d", rec.Ops),
				d.Round(time.Microsecond).String(),
				fmt.Sprintf("%.0f", txnsPerSec),
				fmt.Sprintf("%.2f×", rec.Speedup),
				fmt.Sprintf("%d", rec.Retries),
				fmt.Sprintf("%d", rec.Conflicts),
			)
		}
	}
	return t, records, nil
}
