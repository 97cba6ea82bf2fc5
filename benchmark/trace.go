package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/sched"
	"pwsr/internal/txn"
	"pwsr/internal/wal"
)

// spanName identifies one traced boundary: a public function of a
// pipeline layer, called from a wrapper defined in this file.
type spanName uint8

const (
	spRound spanName = iota // exec.RunCtx or ParallelEngine.ExecuteBatchCtx
	spPick
	spVictim
	spTxnFinished
	spTxnAborted
	spAdmitTxn
	spAdmissible
	spObserve
	spRetract
	spCommit
	spAdmitSequence
	spLogObserve
	spLogCommit
	spLogRetract
	spLogCompact
	spBarrier
	spBackendWrite
	spBackendSync
	spBackendCreate
	spBackendRemove
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spRound:         "exec.round",
	spPick:          "sched.pick",
	spVictim:        "sched.victim",
	spTxnFinished:   "sched.txn_finished",
	spTxnAborted:    "sched.txn_aborted",
	spAdmitTxn:      "sched.admit_txn",
	spAdmissible:    "core.admissible",
	spObserve:       "core.observe",
	spRetract:       "core.retract",
	spCommit:        "core.commit",
	spAdmitSequence: "core.admit_sequence",
	spLogObserve:    "wal.log_observe",
	spLogCommit:     "wal.log_commit",
	spLogRetract:    "wal.log_retract",
	spLogCompact:    "wal.log_compact",
	spBarrier:       "wal.barrier",
	spBackendWrite:  "wal.backend_write",
	spBackendSync:   "wal.backend_sync",
	spBackendCreate: "wal.backend_create",
	spBackendRemove: "wal.backend_remove",
}

// layer groups span names for the share-of-wall attribution.
type layer uint8

const (
	layerExec layer = iota
	layerSched
	layerCore
	layerWAL
)

func (n spanName) layer() layer {
	switch {
	case n == spRound:
		return layerExec
	case n <= spAdmitTxn:
		return layerSched
	case n <= spAdmitSequence:
		return layerCore
	default:
		return layerWAL
	}
}

// span is one recorded boundary crossing. Times are nanoseconds since
// the tracer was created; parent is the index of the enclosing span in
// the buffer (-1 for a round, or when the parent was dropped).
type span struct {
	start, end int64
	parent     int32
	round      int32
	name       spanName
}

// spanAgg accumulates one span name's totals. self is total minus the
// time covered by child spans.
type spanAgg struct {
	calls int64
	total int64
	self  int64
}

// maxSpans bounds the in-memory span buffer (32 B each). Spans beyond
// it are still aggregated, only not written to the trace file.
const maxSpans = 1 << 20

type frame struct {
	name  spanName
	idx   int32
	start int64
	child int64
}

// tracer records spans into a preallocated buffer and aggregates self
// times as spans close. Parents come from a stack of open spans, which
// is sound because every traced boundary is serialized by the pipeline
// itself: the tick engine calls its policy from one goroutine, and the
// batch engine calls AdmitTxn only under its commit lock while the
// round span stays open on the caller. The mutex makes the buffer safe
// across those goroutines; it does not make interleaved open spans
// meaningful, and nothing in the pipeline produces them.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	stack   []frame
	agg     [numSpanNames]spanAgg
	round   int32
	total   int64
	dropped int64
	// syncNs keeps every backend sync duration for the p99.
	syncNs []int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans), stack: make([]frame, 0, 16)}
}

func (t *tracer) begin(n spanName) {
	t.mu.Lock()
	now := int64(time.Since(t.t0))
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1].idx
	}
	idx := int32(-1)
	if len(t.spans) < cap(t.spans) {
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{start: now, parent: parent, round: t.round, name: n})
	} else {
		t.dropped++
	}
	t.total++
	t.stack = append(t.stack, frame{name: n, idx: idx, start: now})
	t.mu.Unlock()
}

func (t *tracer) end() {
	t.mu.Lock()
	now := int64(time.Since(t.t0))
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - f.start
	a := &t.agg[f.name]
	a.calls++
	a.total += d
	a.self += d - f.child
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].child += d
	}
	if f.idx >= 0 {
		t.spans[f.idx].end = now
	}
	if f.name == spBackendSync {
		t.syncNs = append(t.syncNs, d)
	}
	t.mu.Unlock()
}

// layerSelf sums the self time of every span name in the layer.
func (t *tracer) layerSelf(l layer) int64 {
	var ns int64
	for n := spanName(0); n < numSpanNames; n++ {
		if n.layer() == l {
			ns += t.agg[n].self
		}
	}
	return ns
}

// writeFile writes the buffered spans as CSV: one header comment, one
// column line, then one span per line in begin order.
func (t *tracer) writeFile(path, workload string, seed int64) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "# pwsr benchmark trace: workload=%s seed=%d spans=%d dropped=%d\nid,name,parent,round,start_ns,end_ns\n",
		workload, seed, t.total, t.dropped)
	line := make([]byte, 0, 96)
	for i, s := range t.spans {
		line = strconv.AppendInt(line[:0], int64(i), 10)
		line = append(line, ',')
		line = append(line, spanNames[s.name]...)
		for _, v := range [...]int64{int64(s.parent), int64(s.round), s.start, s.end} {
			line = append(line, ',')
			line = strconv.AppendInt(line, v, 10)
		}
		line = append(line, '\n')
		w.Write(line) // a bufio.Writer keeps its first error for Flush
	}
	return w.Flush()
}

// tracedGate times the policy boundary the engines call. It embeds the
// concrete gate so every optional exec extension the engines harvest
// by type assertion (Canceler, Drainer, the reporters, PolicyCloner,
// WatermarkReporter) is still found on the wrapper.
type tracedGate struct {
	*sched.OptimisticCertify
	t *tracer
	// pending sums len(pending) over Pick calls; denied counts AdmitTxn
	// refusals.
	pending int64
	denied  int64
}

func (g *tracedGate) Pick(pending []*exec.Request, v *exec.View) int {
	g.pending += int64(len(pending))
	g.t.begin(spPick)
	defer g.t.end()
	return g.OptimisticCertify.Pick(pending, v)
}

func (g *tracedGate) Victim(pending []*exec.Request, v *exec.View) int {
	g.t.begin(spVictim)
	defer g.t.end()
	return g.OptimisticCertify.Victim(pending, v)
}

func (g *tracedGate) TxnFinished(id int, v *exec.View) {
	g.t.begin(spTxnFinished)
	defer g.t.end()
	g.OptimisticCertify.TxnFinished(id, v)
}

func (g *tracedGate) TxnAborted(id int, v *exec.View) {
	g.t.begin(spTxnAborted)
	defer g.t.end()
	g.OptimisticCertify.TxnAborted(id, v)
}

func (g *tracedGate) AdmitTxn(ops []txn.Op) error {
	g.t.begin(spAdmitTxn)
	defer g.t.end()
	err := g.OptimisticCertify.AdmitTxn(ops)
	if err != nil {
		g.denied++
	}
	return err
}

// tracedCertifier times the monitor boundary the gate calls. Embedding
// the interface forwards the rest of sched.Certifier (SetSink included,
// so the journal still attaches to the real monitor).
type tracedCertifier struct {
	sched.Certifier
	t      *tracer
	denied int64
}

func (c *tracedCertifier) Admissible(o txn.Op) bool {
	c.t.begin(spAdmissible)
	ok := c.Certifier.Admissible(o)
	c.t.end()
	if !ok {
		c.denied++
	}
	return ok
}

func (c *tracedCertifier) Observe(o txn.Op) *core.Violation {
	c.t.begin(spObserve)
	defer c.t.end()
	return c.Certifier.Observe(o)
}

func (c *tracedCertifier) Retract(txnID int) {
	c.t.begin(spRetract)
	defer c.t.end()
	c.Certifier.Retract(txnID)
}

func (c *tracedCertifier) Commit(txnID int) {
	c.t.begin(spCommit)
	defer c.t.end()
	c.Certifier.Commit(txnID)
}

func (c *tracedCertifier) AdmitSequence(ops []txn.Op) (bool, *core.Violation) {
	c.t.begin(spAdmitSequence)
	defer c.t.end()
	return c.Certifier.AdmitSequence(ops)
}

// tracedJournal times the sched.Journal boundary. It embeds the writer
// so sched.Healer and the Stats hook are still found by type assertion.
type tracedJournal struct {
	*wal.Writer
	t *tracer
}

func (j *tracedJournal) LogObserve(o txn.Op) {
	j.t.begin(spLogObserve)
	defer j.t.end()
	j.Writer.LogObserve(o)
}

func (j *tracedJournal) LogCommit(txnID int) {
	j.t.begin(spLogCommit)
	defer j.t.end()
	j.Writer.LogCommit(txnID)
}

func (j *tracedJournal) LogRetract(txnID int) {
	j.t.begin(spLogRetract)
	defer j.t.end()
	j.Writer.LogRetract(txnID)
}

func (j *tracedJournal) LogCompact(reclaimed []int, stats core.CompactStats, ops int) {
	j.t.begin(spLogCompact)
	defer j.t.end()
	j.Writer.LogCompact(reclaimed, stats, ops)
}

func (j *tracedJournal) Barrier() error {
	j.t.begin(spBarrier)
	defer j.t.end()
	return j.Writer.Barrier()
}
