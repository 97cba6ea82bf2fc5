package main

import (
	"context"
	"fmt"
	"os"
	"runtime"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/sched"
	"pwsr/internal/state"
	"pwsr/internal/wal"
)

// schedulerSeed seeds the gate's inner sched.Random policy. It is part
// of the pipeline's configuration, not of the generated input, so the
// benchmark's -seed does not reach it.
const schedulerSeed = 1

// journalOptions is the flush policy of cad-tick-durable: one fsync per
// 64 records, a snapshot cut every 4 compaction passes.
var journalOptions = wal.Options{GroupEvery: 16, SnapshotEvery: 4}

// pipeline is the real stack for one workload, persistent across
// rounds: monitor, gate, optional journal, and for the batch workload
// the engine with its versioned store. With a tracer every boundary
// reachable from outside is wrapped; without one the layers are wired
// to each other directly.
type pipeline struct {
	w  *workload
	tr *tracer

	mon     sched.Certifier          // the raw monitor
	gate    *sched.OptimisticCertify // the raw gate
	policy  exec.Policy              // gate, or its traced wrapper
	tgate   *tracedGate
	tmon    *tracedCertifier
	journal *wal.Writer
	backend *countingBackend
	files   *wal.FileBackend
	logDir  string
	engine  *exec.ParallelEngine
	db      state.DB // tick workloads: Final of the previous round
}

// newPipeline builds the stack. dir is where a durable workload puts
// its log directory.
func newPipeline(w *workload, tr *tracer, dir string) (*pipeline, error) {
	p := &pipeline{w: w, tr: tr, db: w.initial}
	if w.batch {
		p.mon = core.NewShardedMonitor(w.partition, runtime.GOMAXPROCS(0))
	} else {
		p.mon = core.NewMonitor(w.partition)
	}
	p.mon.SetAutoCompact(w.autoCompactEvery())

	certifier := p.mon
	if tr != nil {
		p.tmon = &tracedCertifier{Certifier: p.mon, t: tr}
		certifier = p.tmon
	}
	p.gate = sched.NewOptimisticCertifyOver(certifier, sched.NewRandom(schedulerSeed), sched.VictimYoungest)
	p.policy = p.gate
	if tr != nil {
		p.tgate = &tracedGate{OptimisticCertify: p.gate, t: tr}
		p.policy = p.tgate
	}

	if w.durable {
		logDir, err := os.MkdirTemp(dir, "wal-")
		if err != nil {
			return nil, err
		}
		p.logDir = logDir
		if p.files, err = wal.NewFileBackend(logDir); err != nil {
			return nil, err
		}
		p.backend = newCountingBackend(p.files, tr)
		if p.journal, err = wal.NewWriter(p.backend, journalOptions); err != nil {
			return nil, err
		}
		if tr != nil {
			p.gate.AttachJournal(&tracedJournal{Writer: p.journal, t: tr})
		} else {
			p.gate.AttachJournal(p.journal)
		}
	}

	if w.batch {
		ro := make(map[int]bool, w.readers)
		for j := 0; j < w.readers; j++ {
			ro[readerID(j)] = true
		}
		gate, ok := p.policy.(exec.BatchGate)
		if !ok {
			return nil, fmt.Errorf("%T is not an exec.BatchGate", p.policy)
		}
		p.engine = exec.NewParallelEngine(exec.ParallelConfig{
			Initial:  w.initial,
			Gate:     gate,
			Workers:  runtime.GOMAXPROCS(0),
			ReadOnly: ro,
		})
	}
	return p, nil
}

// round runs one round to completion: every program of in commits, or
// the round fails as a whole.
func (p *pipeline) round(ctx context.Context, r int, in roundInput) (*exec.Result, error) {
	if p.tr != nil {
		p.tr.round = int32(r)
		p.tr.begin(spRound)
		defer p.tr.end()
	}
	if p.w.batch {
		return p.engine.ExecuteBatchCtx(ctx, in.programs)
	}
	res, err := exec.RunCtx(ctx, exec.Config{
		Programs: in.programs,
		Initial:  p.db,
		Policy:   p.policy,
		DataSets: p.w.partition,
	})
	if err == nil {
		p.db = res.Final
	}
	return res, err
}

// close releases the journal and removes the log directory.
func (p *pipeline) close() error {
	var err error
	if p.journal != nil {
		err = p.journal.Close()
		p.journal = nil
	}
	if p.logDir != "" {
		if rerr := os.RemoveAll(p.logDir); err == nil {
			err = rerr
		}
		p.logDir = ""
	}
	return err
}

// counts are the exact, seed-determined counters of a run prefix. The
// traced pass must reproduce them: tracing may cost time but never
// change a decision. On the batch workload speculation timing moves
// retries and probe counts, so only the fields in batchEqual compare.
type counts struct {
	Rounds        int   `json:"rounds"`
	Committed     int   `json:"committed"`
	GrantedOps    int   `json:"granted_ops"`
	Aborts        int   `json:"aborts"`
	WastedOps     int   `json:"wasted_ops"`
	ProbeHits     int64 `json:"probe_hits"`
	ProbeMisses   int64 `json:"probe_misses"`
	ProbeInvalid  int64 `json:"probe_invalidations"`
	Compactions   int   `json:"compactions"`
	ReclaimedTxns int   `json:"reclaimed_txns"`
	LogRecords    int64 `json:"log_records"`
	LogBytes      int64 `json:"log_bytes"`
	Fsyncs        int64 `json:"fsyncs"`
	Snapshots     int64 `json:"snapshots"`
	LogRetries    int64 `json:"log_retries"`
}

// batchEqual keeps the fields that repeat exactly on the batch
// workload, where commits land in id order whatever the workers do.
func (c counts) batchEqual() counts {
	return counts{Rounds: c.Rounds, Committed: c.Committed, GrantedOps: c.GrantedOps,
		Compactions: c.Compactions, ReclaimedTxns: c.ReclaimedTxns}
}

// snapshotCounts reads the layers' own cumulative counters into c.
func (p *pipeline) snapshotCounts(c *counts) {
	ps := p.mon.ProbeStats()
	c.ProbeHits, c.ProbeMisses, c.ProbeInvalid = ps.Hits, ps.Misses, ps.Invalidations
	cs := p.mon.CompactStats()
	c.Compactions, c.ReclaimedTxns = cs.Compactions, cs.ReclaimedTxns
	if p.journal != nil {
		st := p.journal.Stats()
		c.LogRecords, c.LogBytes, c.Fsyncs, c.Snapshots = st.Records, st.LogBytes, st.Fsyncs, st.Snapshots
		c.LogRetries = st.Retries
	}
}
