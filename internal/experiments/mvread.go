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

// MVReadRecord is one measurement of the PERF11 multiversion-read
// study, in the machine-readable shape cmd/pwsrbench writes to
// BENCH_mvread.json. Each conflict cell is measured twice — readers
// run through the certification pipeline like ordinary transactions
// ("gate"), then declared read-only and served from pinned snapshots
// ("bypass") — so ROSpeedup is the within-cell throughput ratio and
// survives host clock differences.
type MVReadRecord struct {
	// ConflictPct is the share of writers read-modify-writing the
	// shared hot item the readers also scan.
	ConflictPct int `json:"conflict_pct"`
	// Mode is "gate" (readers certified like writers) or "bypass"
	// (readers declared via ParallelConfig.ReadOnly).
	Mode string `json:"mode"`
	// Workers and GOMAXPROCS fix the parallelism of the measurement.
	Workers    int `json:"workers"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// Writers and Readers are the batch composition.
	Writers int `json:"writers"`
	Readers int `json:"readers"`
	// Ops counts every scheduled operation, reader reads included.
	Ops int `json:"ops"`
	// NsPerTxn is the best-of-reps wall-clock cost per transaction
	// (writers and readers together).
	NsPerTxn float64 `json:"ns_per_txn"`
	// TxnsPerSec is whole-batch throughput; ReadersPerSec prorates the
	// same wall clock over the reader population.
	TxnsPerSec    float64 `json:"txns_per_sec"`
	ReadersPerSec float64 `json:"readers_per_sec"`
	// ROSpeedup is ReadersPerSec over the same cell's gate-mode run
	// (1.0 on gate rows by construction).
	ROSpeedup float64 `json:"ro_speedup"`
	// Retries and Conflicts are the speculation-cost counters of the
	// final repetition; in bypass mode readers contribute none.
	Retries   int `json:"retries"`
	Conflicts int `json:"conflicts"`
	// ROTxns is the declared-reader count served from snapshots (0 in
	// gate mode); Versions is the store's retained-version count at
	// batch end.
	ROTxns   int `json:"ro_txns"`
	Versions int `json:"versions_retained"`
}

// mvreadWorkload is one PERF11 batch: writer programs (a conflictPct
// share read-modify-writing the hot item) plus scan programs reading
// the hot item and a fixed window of private items. The scans are the
// same program text in both modes — only their admission path changes.
type mvreadWorkload struct {
	writers   map[int]*program.Program
	readers   map[int]*program.Program
	initial   state.DB
	partition []state.ItemSet
	readOnly  map[int]bool
}

// newMVReadWorkload builds the batch: writer ids 1..writers, reader
// ids writers+1..writers+readers (ascending, so the pipeline's commit
// order puts gate-mode readers after the writers they scan).
func newMVReadWorkload(writers, readers, spin, scan, conflictPct int, seed int64) *mvreadWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := &mvreadWorkload{
		writers:  make(map[int]*program.Program, writers),
		readers:  make(map[int]*program.Program, readers),
		initial:  state.DB{},
		readOnly: make(map[int]bool, readers),
	}
	const privateConjuncts = 8
	private := make([]state.ItemSet, privateConjuncts)
	for i := range private {
		private[i] = state.NewItemSet()
	}
	for i := 1; i <= writers; i++ {
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
		w.writers[i] = program.MustParse(src)
	}
	w.initial.Set("h", state.Int(0))
	w.partition = append(private, state.NewItemSet("h"))
	for j := 1; j <= readers; j++ {
		id := writers + j
		src := fmt.Sprintf("program R%d {\n  let a := h;\n", id)
		for k := 0; k < scan; k++ {
			src += fmt.Sprintf("  let v%d := x%d;\n", k, 1+(j+k)%writers)
		}
		src += "}\n"
		w.readers[id] = program.MustParse(src)
		w.readOnly[id] = true
	}
	return w
}

// merged returns the whole batch as one program map.
func (w *mvreadWorkload) merged() map[int]*program.Program {
	all := make(map[int]*program.Program, len(w.writers)+len(w.readers))
	for id, p := range w.writers {
		all[id] = p
	}
	for id, p := range w.readers {
		all[id] = p
	}
	return all
}

// MVReadStudy runs the PERF11 sweep: a mixed batch of hot-item writers
// and scan readers through exec.RunParallelCtx, each conflict cell
// measured with the readers certified through the gate like ordinary
// transactions and again with the readers declared read-only and
// served from pinned multiversion snapshots. The study's claim is the
// decoupling one: gate-mode readers pay validation retries and
// certification that scale with writer contention on the items they
// scan, while bypass readers are never denied, never retry, and never
// touch the gate — at any contention level.
//
// Every bypass run is re-proved, not assumed: the combined schedule
// (readers spliced at their snapshot prefixes) must pass the batch
// PWSR checker and replay value-consistently, the final state must
// equal the gate-mode run's, and every declared reader must have been
// served from a snapshot. GOMAXPROCS is pinned to the worker count for
// the measurement and restored on return.
func MVReadStudy(seed int64, quick bool) (*sim.Table, []MVReadRecord, error) {
	writers, readers, spin, scan, reps := 48, 48, 2000, 8, 3
	if quick {
		writers, readers, spin, scan, reps = 16, 16, 300, 8, 2
	}
	workerPool := 4
	conflicts := []int{0, 50, 100}
	if quick {
		conflicts = []int{0, 100}
	}

	t := &sim.Table{
		Title: "PERF11 — multiversion snapshot reads: declared-reader bypass vs readers through the gate",
		Columns: []string{
			"conflict%", "mode", "workers", "writers", "readers", "ops", "time",
			"txns/s", "readers/s", "RO speedup", "retries", "conflicts", "ro_txns", "versions",
		},
		Notes: []string{
			fmt.Sprintf("host CPUs: %d; batch: %d spin-%d writers + %d scan-%d readers, certification via OptimisticCertify over a ShardedMonitor",
				runtime.NumCPU(), writers, spin, readers, scan),
			"every bypass run re-proved: combined schedule PWSR + value-consistent replay, final state equal to the gate run",
			"bypass readers are never denied, never retried, and never enter the gate — the decoupling claim",
		},
	}

	var records []MVReadRecord
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(workerPool)
	for _, pct := range conflicts {
		w := newMVReadWorkload(writers, readers, spin, scan, pct, seed+int64(pct))
		var gateReadersPerSec float64
		var gateFinal state.DB
		for _, mode := range []string{"gate", "bypass"} {
			var res *exec.Result
			d := bestOf(reps, func() {
				cfg := exec.ParallelConfig{
					Initial: w.initial,
					Gate:    sched.NewOptimisticCertifyOver(core.NewShardedMonitor(w.partition, len(w.partition)), &sched.Serial{}, nil),
					Workers: workerPool,
				}
				if mode == "bypass" {
					cfg.ReadOnly = w.readOnly
				}
				r, err := exec.RunParallelCtx(context.TODO(), cfg, w.merged())
				if err != nil {
					panic(fmt.Sprintf("mvread study: mode=%s conflict=%d%%: %v", mode, pct, err))
				}
				res = r
			})
			total := writers + readers
			txnsPerSec := float64(total) / d.Seconds()
			readersPerSec := float64(readers) / d.Seconds()
			rec := MVReadRecord{
				ConflictPct:   pct,
				Mode:          mode,
				Workers:       workerPool,
				GOMAXPROCS:    workerPool,
				Writers:       writers,
				Readers:       readers,
				Ops:           res.Schedule.Len(),
				NsPerTxn:      float64(d.Nanoseconds()) / float64(total),
				TxnsPerSec:    txnsPerSec,
				ReadersPerSec: readersPerSec,
				ROSpeedup:     1,
				Retries:       res.Metrics.Retries,
				Conflicts:     res.Metrics.Conflicts,
				ROTxns:        res.Metrics.ROTxns,
				Versions:      res.Metrics.MV.Versions,
			}
			switch mode {
			case "gate":
				gateReadersPerSec = readersPerSec
				gateFinal = res.Final
				if res.Metrics.ROTxns != 0 {
					return nil, nil, fmt.Errorf("mvread study: gate mode conflict=%d%%: %d declared readers leaked in", pct, res.Metrics.ROTxns)
				}
			case "bypass":
				if gateReadersPerSec > 0 {
					rec.ROSpeedup = readersPerSec / gateReadersPerSec
				}
				if !res.Final.Equal(gateFinal) {
					return nil, nil, fmt.Errorf("mvread study: bypass conflict=%d%%: final state diverged from the gate run", pct)
				}
				if err := verifyBypassRun(w, res, pct); err != nil {
					return nil, nil, err
				}
			}
			records = append(records, rec)
			t.AddRow(
				fmt.Sprintf("%d", pct),
				mode,
				fmt.Sprintf("%d", workerPool),
				fmt.Sprintf("%d", writers),
				fmt.Sprintf("%d", readers),
				fmt.Sprintf("%d", rec.Ops),
				d.Round(time.Microsecond).String(),
				fmt.Sprintf("%.0f", txnsPerSec),
				fmt.Sprintf("%.0f", readersPerSec),
				fmt.Sprintf("%.2f×", rec.ROSpeedup),
				fmt.Sprintf("%d", rec.Retries),
				fmt.Sprintf("%d", rec.Conflicts),
				fmt.Sprintf("%d", rec.ROTxns),
				fmt.Sprintf("%d", rec.Versions),
			)
		}
	}
	return t, records, nil
}

// verifyBypassRun discharges the bypass proof obligation for one
// measured run: declared readers all served from snapshots, the
// combined (spliced) schedule PWSR under the batch checker, and its
// replay value-consistent from the initial state. A performance number
// for an unsound execution would be worthless.
func verifyBypassRun(w *mvreadWorkload, res *exec.Result, pct int) error {
	if res.Metrics.ROTxns != len(w.readers) {
		return fmt.Errorf("mvread study: bypass conflict=%d%%: %d of %d readers served from snapshots",
			pct, res.Metrics.ROTxns, len(w.readers))
	}
	if v := core.CheckPWSR(res.Schedule, w.partition); !v.PWSR {
		return fmt.Errorf("mvread study: bypass conflict=%d%%: combined schedule not PWSR", pct)
	}
	if err := res.Schedule.ConsistentValues(w.initial); err != nil {
		return fmt.Errorf("mvread study: bypass conflict=%d%%: combined schedule replay: %w", pct, err)
	}
	return nil
}
