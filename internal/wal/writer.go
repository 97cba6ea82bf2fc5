package wal

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pwsr/internal/core"
	"pwsr/internal/txn"
)

// ErrWriterClosing marks operations cut short because Close interrupted
// a retry backoff: instead of sleeping out the jittered schedule
// against a failing backend, the writer abandons the retry immediately.
// The sticky fail-stop error wraps it, so callers can errors.Is-tell a
// close-interrupted outage from one that exhausted its retries.
var ErrWriterClosing = errors.New("wal: writer closing")

// segSuffix is the segment file extension.
const segSuffix = ".wal"

// segName formats a segment index as its file name.
func segName(idx int) string { return fmt.Sprintf("%08d%s", idx, segSuffix) }

// Options configures a Writer. The zero value is a safe default:
// sync on every record, snapshot at every compaction pass, three
// bounded retries, delete superseded segments.
type Options struct {
	// GroupEvery is the group-commit window, counted in commit records:
	// appends only copy into memory, and once this many commit records
	// are pending the writer hands everything buffered — the commits
	// and the observe, retract and compact records between them — to
	// the backend in one write and fsyncs it. ≤ 1 flushes every record
	// as it is appended, the per-grant barrier a feeder needs when it
	// resumes in-flight transactions across a crash. Above 1 the
	// acknowledgment point owns durability: a certification gate calls
	// Sync when its run reports its commits (sched's Settle), so a
	// crash loses at most the unreported tail — up to one group of
	// GroupEvery commits whose run has not yet returned.
	GroupEvery int
	// GroupWindow, when positive, bounds the group-commit latency: an
	// append also flushes when this much time passed since the last
	// sync, so a quiet stream does not hold records unsynced
	// indefinitely.
	GroupWindow time.Duration
	// SnapshotEvery cuts a snapshot segment every this many compaction
	// passes (0 = every pass; negative = never cut, the log grows as
	// one segment).
	SnapshotEvery int
	// MaxRetries bounds the retry attempts for a failed backend write
	// or sync before the writer goes fail-stop (0 = default 3;
	// negative = no retries).
	MaxRetries int
	// RetryBackoff is the base sleep between retry attempts: attempt n
	// sleeps a uniformly jittered duration in [d/2, d], where
	// d = min(RetryBackoff×(n+1), RetryBackoffMax). The jitter
	// decorrelates the retry schedules of independent writers pounding
	// a shared failing device (a synchronized retry storm re-spikes the
	// device exactly when it is trying to come back), while the d/2
	// floor keeps the total retry latency predictable to within 2×.
	// The sleep happens off the writer's state lock: during a backend
	// outage only the feeding goroutine (and any concurrent mutator,
	// which queues behind the operation lock) stalls, and Barrier, Err,
	// Stats, and Seq stay responsive throughout. Size MaxRetries ×
	// RetryBackoff for the stall the admission path can tolerate.
	RetryBackoff time.Duration
	// RetryBackoffMax caps a single backoff sleep, so a generous
	// MaxRetries cannot grow the linear schedule into multi-second
	// admission stalls (0 = default 16×RetryBackoff; negative =
	// uncapped).
	RetryBackoffMax time.Duration
	// Retain keeps superseded segments instead of deleting them after
	// a successful snapshot cut (the crash matrix uses this to sweep
	// crash points across the whole history).
	Retain bool
}

// maxRetries returns the normalized retry bound.
func (o Options) maxRetries() int {
	switch {
	case o.MaxRetries == 0:
		return 3
	case o.MaxRetries < 0:
		return 0
	default:
		return o.MaxRetries
	}
}

// retryBackoffMax returns the normalized backoff cap (0 = uncapped).
func (o Options) retryBackoffMax() time.Duration {
	switch {
	case o.RetryBackoffMax == 0:
		return 16 * o.RetryBackoff
	case o.RetryBackoffMax < 0:
		return 0
	default:
		return o.RetryBackoffMax
	}
}

// Stats are the Writer's cumulative durability counters.
type Stats struct {
	// Records is the number of lifecycle records appended (snapshot
	// sections not included).
	Records int64
	// LogBytes counts every byte handed to the backend, snapshot
	// sections included.
	LogBytes int64
	// Fsyncs counts successful Sync calls on the backend.
	Fsyncs int64
	// Snapshots counts completed snapshot cuts.
	Snapshots int64
	// Retries counts retried backend writes and syncs.
	Retries int64
	// CutFailures counts snapshot cuts abandoned on a fresh-segment
	// error (the writer continues on the old segment; see doc.go).
	CutFailures int64
	// Failovers counts successful promotions onto a standby backend:
	// the active segment was re-established (mirror replay + sync) on
	// the next chain member after the previous target failed past the
	// retry bound (see FailoverBackend).
	Failovers int64
	// Heals counts fail-stops cleared by Heal — the backend came back
	// and the active segment was rebuilt on it from the mirror.
	Heals int64
	// RecoveryReplays is the number of events replayed to build this
	// writer's monitor (set by Resume; 0 for a fresh log).
	RecoveryReplays int64
}

// liveEvent is one entry of the writer's surviving lifecycle stream,
// tagged with its original sequence number so a snapshot re-encodes
// it verbatim.
type liveEvent struct {
	seq uint64
	ev  core.Event
}

// eventTxn returns the transaction a lifecycle event belongs to.
func eventTxn(ev core.Event) int {
	if ev.Kind == core.EventObserve {
		return ev.Op.Txn
	}
	return ev.Txn
}

// Writer is the durable lifecycle sink: attach it to a monitor with
// SetSink (or a gate with sched.AttachJournal) and every lifecycle
// event is framed, CRC'd, and buffered for the backend, with group
// commit, snapshot cuts at the compaction low watermark, bounded
// retry, and fail-stop degradation as described in the package
// comment. Methods are safe for concurrent use, but the lifecycle
// stream itself must be fed from one goroutine at a time (see
// core.LifecycleSink).
type Writer struct {
	// opMu serializes the mutating entry points (the lifecycle sink
	// methods, Sync, Close) and is always acquired before mu. Holding
	// it across a whole operation is what lets backoff release mu and
	// sleep off the state lock: no other mutator can retire the segment
	// under a partially written frame, while the inspection methods
	// (Err, Stats, Seq, Barrier), which take only mu, stay responsive
	// during a backend outage.
	opMu sync.Mutex
	// mu guards the writer state below.
	mu   sync.Mutex
	b    Backend
	opts Options

	seg      File
	segIndex int
	seq      uint64
	commits  int // commit records appended since the last sync
	lastSync time.Time
	err      error
	stats    Stats

	// live is the surviving lifecycle stream (observes and commits of
	// transactions not yet retracted or reclaimed, in application
	// order): what the next snapshot cut writes.
	live []liveEvent
	// counters is the monitor's counter block as of the last compact
	// record — the snapshot header of the next cut.
	counters snapHeader
	// compactsSinceCut drives the SnapshotEvery cadence.
	compactsSinceCut int

	// mirror is the byte-exact in-memory image of the active segment
	// and its write buffer: the genesis header or surviving snapshot it
	// begins with, plus every frame appended since. Appending frames a
	// record here; mirror[flushed:] is what the next flush writes.
	// Failover replays the whole mirror onto a promoted standby, and
	// Heal onto a recovered backend — the re-established segment is
	// byte-identical to the one the failed target was supposed to hold,
	// so every recovery invariant (compact-point cuts, strict sequence
	// continuity) carries over unchanged. Its size is bounded by the
	// snapshot cadence, like live.
	mirror  []byte
	flushed int
	// rng is the splitmix64 state behind backoff jitter (timing-only;
	// a fixed seed keeps the writer allocation-free and deterministic
	// to construct).
	rng uint64

	// stopc is closed by Close before it queues on the operation lock,
	// so a backoff sleeping out a backend outage wakes immediately
	// instead of holding Close behind the full jittered schedule.
	stopc    chan struct{}
	stopOnce sync.Once

	// payload is encoding scratch, reused across records.
	payload []byte
}

// NewWriter creates a fresh log on the backend and returns its
// writer. The backend must hold no segments (recover an existing log
// with Resume). The genesis header is buffered like a record and
// reaches the segment with the first flush.
func NewWriter(b Backend, opts Options) (*Writer, error) {
	names, err := b.List()
	if err != nil {
		return nil, fmt.Errorf("wal: list segments: %w", err)
	}
	if len(names) > 0 {
		return nil, fmt.Errorf("wal: backend already holds %d segment(s); use Resume", len(names))
	}
	f, err := b.Create(segName(0))
	if err != nil {
		return nil, fmt.Errorf("wal: create genesis segment: %w", err)
	}
	return &Writer{b: b, opts: opts, seg: f, lastSync: time.Now(), stopc: make(chan struct{}), mirror: []byte(segMagic)}, nil
}

// Err returns the sticky fail-stop error, or nil.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Stats snapshots the cumulative durability counters.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Seq returns the sequence number of the last appended event.
func (w *Writer) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// LogObserve implements core.LifecycleSink.
func (w *Writer) LogObserve(o txn.Op) {
	w.opMu.Lock()
	defer w.opMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	w.seq++
	w.payload = appendObserve(w.payload[:0], w.seq, o)
	w.appendLocked(w.payload)
	w.live = append(w.live, liveEvent{seq: w.seq, ev: core.Event{Kind: core.EventObserve, Op: o}})
	w.groupLocked(false)
}

// LogCommit implements core.LifecycleSink.
func (w *Writer) LogCommit(txnID int) {
	w.logTxn(recCommit, core.EventCommit, txnID)
}

// LogRetract implements core.LifecycleSink.
func (w *Writer) LogRetract(txnID int) {
	w.logTxn(recRetract, core.EventRetract, txnID)
}

func (w *Writer) logTxn(kind byte, evKind core.EventKind, txnID int) {
	w.opMu.Lock()
	defer w.opMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	w.seq++
	w.payload = appendTxnRecord(w.payload[:0], kind, w.seq, txnID)
	w.appendLocked(w.payload)
	if evKind == core.EventRetract {
		// A retracted transaction's history is as if it never ran: its
		// events leave the surviving stream (only observes — a
		// committed transaction cannot be retracted).
		w.dropLive(func(id int) bool { return id == txnID })
	} else {
		w.live = append(w.live, liveEvent{seq: w.seq, ev: core.Event{Kind: evKind, Txn: txnID}})
	}
	w.groupLocked(evKind == core.EventCommit)
}

// LogCompact implements core.LifecycleSink: the pass is logged, the
// reclaimed transactions leave the surviving stream, the counter
// block is latched for the next snapshot header, and — on the
// SnapshotEvery cadence — a snapshot segment is cut. The stream, the
// counters and the cadence are updated before the group flush, so the
// record is in the mirror and in the next snapshot whatever the flush
// returns; the cut follows the flush.
func (w *Writer) LogCompact(reclaimed []int, stats core.CompactStats, ops int) {
	w.opMu.Lock()
	defer w.opMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	w.seq++
	w.payload = appendCompact(w.payload[:0], w.seq, reclaimed)
	w.appendLocked(w.payload)
	if len(reclaimed) > 0 {
		gone := make(map[int]bool, len(reclaimed))
		for _, id := range reclaimed {
			gone[id] = true
		}
		w.dropLive(func(id int) bool { return gone[id] })
	}
	w.counters = snapHeader{
		ops:           ops,
		compactions:   stats.Compactions,
		reclaimedTxns: stats.ReclaimedTxns,
		reclaimedOps:  stats.ReclaimedOps,
	}
	w.compactsSinceCut++
	every := w.opts.SnapshotEvery
	if every == 0 {
		every = 1
	}
	w.groupLocked(false)
	if every > 0 && w.compactsSinceCut >= every && w.err == nil {
		w.cutLocked()
	}
}

// dropLive filters the surviving stream in place.
func (w *Writer) dropLive(gone func(txnID int) bool) {
	kept := w.live[:0]
	for _, le := range w.live {
		if !gone(eventTxn(le.ev)) {
			kept = append(kept, le)
		}
	}
	clear(w.live[len(kept):])
	w.live = kept
}

// Barrier reports whether everything acknowledged so far can still be
// made durable: nil while the writer is healthy, the sticky
// fail-stop error once the backend has failed past the retry bound.
// It neither writes nor syncs: with GroupEvery > 1, records
// acknowledged under a nil Barrier may still be only in memory until
// the group fills or Sync runs — a grant is internal to the pipeline,
// and the acknowledgment that leaves it (a run's commits) syncs.
func (w *Writer) Barrier() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Sync forces the pending group to the backend now: one write and a
// sync. With nothing appended since the last successful sync it is a
// no-op — no write, no fsync — so a caller may sync at every
// acknowledgment point without paying for the ones a group flush or a
// snapshot cut already covered.
func (w *Writer) Sync() error {
	w.opMu.Lock()
	defer w.opMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.flushed < len(w.mirror) {
		w.flushLocked()
	}
	return w.err
}

// CutSnapshot forces a snapshot cut now, outside the SnapshotEvery
// cadence — the drain sequence uses it so a gate's final Compact pass
// is followed by a snapshot the next Resume starts from. It returns
// the sticky fail-stop error if the writer is (or goes) down, or a
// descriptive error when the cut was abandoned on a fresh-segment
// failure (the active segment stays intact either way).
func (w *Writer) CutSnapshot() error {
	w.opMu.Lock()
	defer w.opMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	before := w.stats.Snapshots
	w.cutLocked()
	if w.err != nil {
		return w.err
	}
	if w.stats.Snapshots == before {
		return fmt.Errorf("wal: snapshot cut abandoned (cut failures so far: %d)", w.stats.CutFailures)
	}
	return nil
}

// Close flushes and closes the active segment. The writer must not be
// used afterwards. Closing interrupts any retry backoff in progress
// (the stalled operation fails fast wrapping ErrWriterClosing) rather
// than waiting a backend outage's jittered schedule out.
func (w *Writer) Close() error {
	w.stopOnce.Do(func() {
		if w.stopc != nil {
			close(w.stopc)
		}
	})
	w.opMu.Lock()
	defer w.opMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.flushLocked()
	}
	err := w.err
	if w.seg != nil {
		if cerr := w.seg.Close(); cerr != nil && err == nil {
			err = cerr
		}
		w.seg = nil
	}
	return err
}

// appendLocked frames the payload into the mirror. It does no backend
// I/O: the record reaches the active segment with the next flush.
func (w *Writer) appendLocked(payload []byte) {
	n := len(w.mirror)
	w.mirror = appendFrame(w.mirror, payload)
	w.stats.Records++
	w.stats.LogBytes += int64(len(w.mirror) - n)
}

// groupLocked applies the group-commit policy after an append's
// bookkeeping (commit marks a commit record): with GroupEvery ≤ 1
// every record is flushed; above it, a full group of commits (or an
// expired GroupWindow) is.
func (w *Writer) groupLocked(commit bool) {
	if commit {
		w.commits++
	}
	if w.opts.GroupEvery <= 1 || w.commits >= w.opts.GroupEvery ||
		(w.opts.GroupWindow > 0 && time.Since(w.lastSync) >= w.opts.GroupWindow) {
		w.flushLocked()
	}
}

// flushLocked writes the buffered tail of the mirror to the active
// segment in one backend write and syncs it, each with bounded
// retries. On exhaustion it attempts a failover — a successful rebase
// writes and syncs the whole mirror on the promoted target, so there
// is nothing left to flush — and goes fail-stop only when that too is
// impossible.
func (w *Writer) flushLocked() {
	if err := w.writeAllTo(w.seg, w.mirror[w.flushed:]); err != nil {
		w.failoverLocked(fmt.Errorf("write: %w", err))
		return
	}
	w.flushed = len(w.mirror)
	if err := w.syncTo(w.seg); err != nil {
		w.failoverLocked(fmt.Errorf("sync: %w", err))
		return
	}
	w.commits = 0
	w.lastSync = time.Now()
}

// syncTo syncs f, retrying a failed sync with bounded backoff.
func (w *Writer) syncTo(f File) error {
	for attempt := 0; ; attempt++ {
		err := f.Sync()
		if err == nil {
			w.stats.Fsyncs++
			return nil
		}
		if attempt >= w.opts.maxRetries() {
			return err
		}
		w.stats.Retries++
		if w.backoff(attempt) {
			return fmt.Errorf("%w (%w)", err, ErrWriterClosing)
		}
	}
}

// writeAllTo writes p to f completely, retrying the remainder of a
// short or failed write with bounded backoff; an empty p writes
// nothing. A final failure can leave a torn tail on f — exactly the
// state recovery tolerates.
func (w *Writer) writeAllTo(f File, p []byte) error {
	for attempt := 0; len(p) > 0; attempt++ {
		n, err := f.Write(p)
		p = p[max(n, 0):]
		if len(p) == 0 {
			break
		}
		if err == nil {
			err = fmt.Errorf("short write (%d bytes left)", len(p))
		}
		if attempt >= w.opts.maxRetries() {
			return err
		}
		w.stats.Retries++
		if w.backoff(attempt) {
			return fmt.Errorf("%w (%w)", err, ErrWriterClosing)
		}
	}
	return nil
}

// backoff sleeps between retry attempts: linear in the attempt
// number, capped at Options.RetryBackoffMax, jittered into [d/2, d]
// (zero RetryBackoff retries immediately). The sleep happens with
// w.mu released — the inspection methods must stay responsive during
// a backend outage — while the caller's hold on opMu keeps every
// other mutator out, so nothing can retire the segment under the
// partially written frame, and w.err cannot be set by anyone else:
// fail-stop ordering (error latched before the operation returns) is
// preserved. Callers must hold mu (and, once the writer is shared,
// opMu).
//
// The sleep is interruptible: Close closes stopc before queuing on the
// operation lock, and backoff returns true the moment it fires — the
// caller abandons the retry (fail fast, wrapping ErrWriterClosing)
// instead of making Close wait out the capped jittered schedule. A
// zero RetryBackoff does not sleep, so there is nothing to interrupt:
// the retry budget holds, Close's own final flush included.
func (w *Writer) backoff(attempt int) (interrupted bool) {
	if w.opts.RetryBackoff <= 0 {
		return false
	}
	d := w.opts.RetryBackoff * time.Duration(attempt+1)
	if max := w.opts.retryBackoffMax(); max > 0 && d > max {
		d = max
	}
	// splitmix64 step; timing-only randomness, so the fixed seed is
	// deliberate.
	w.rng += 0x9e3779b97f4a7c15
	z := w.rng
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if half := d / 2; half > 0 {
		d = half + time.Duration(z%uint64(half+1))
	}
	w.mu.Unlock()
	if w.stopc == nil {
		time.Sleep(d)
	} else {
		t := time.NewTimer(d)
		select {
		case <-w.stopc:
			interrupted = true
		case <-t.C:
		}
		t.Stop()
	}
	w.mu.Lock()
	return interrupted
}

// failLocked records the sticky fail-stop error: every further append
// is a no-op and Barrier reports the failure, so a journaled gate
// stops granting.
func (w *Writer) failLocked(err error) {
	if w.err == nil {
		w.err = fmt.Errorf("wal: fail-stop: %w", err)
	}
}

// cutLocked cuts a snapshot: the active segment is flushed (the cut
// boundary must be durable before anything supersedes it), the next
// segment is created and seeded with the surviving stream between
// snapshot-begin/end records, synced, and the superseded segments are
// deleted (unless Options.Retain). A failure on the fresh segment
// abandons the cut and continues on the active segment — the old
// log is intact, so losing a snapshot is losing an optimization, not
// durability; only active-segment failures are fail-stop.
func (w *Writer) cutLocked() {
	w.compactsSinceCut = 0
	if w.seg != nil {
		w.flushLocked()
		if w.err != nil {
			return
		}
	}
	newIdx := w.segIndex + 1
	name := segName(newIdx)
	f, err := w.b.Create(name)
	if err != nil {
		w.stats.CutFailures++
		return
	}
	buf := make([]byte, 0, 64+len(w.live)*24)
	buf = append(buf, segMagic...)
	hdr := w.counters
	hdr.eventCount = len(w.live)
	w.payload = appendSnapBegin(w.payload[:0], w.seq, hdr)
	buf = appendFrame(buf, w.payload)
	for _, le := range w.live {
		switch le.ev.Kind {
		case core.EventObserve:
			w.payload = appendObserve(w.payload[:0], le.seq, le.ev.Op)
		case core.EventCommit:
			w.payload = appendTxnRecord(w.payload[:0], recCommit, le.seq, le.ev.Txn)
		}
		buf = appendFrame(buf, w.payload)
	}
	w.payload = appendSnapEnd(w.payload[:0], w.seq)
	buf = appendFrame(buf, w.payload)
	if err := w.writeAllTo(f, buf); err != nil {
		f.Close()
		w.b.Remove(name)
		w.stats.CutFailures++
		return
	}
	if err := f.Sync(); err != nil {
		f.Close()
		w.b.Remove(name)
		w.stats.CutFailures++
		return
	}
	w.stats.Fsyncs++
	w.stats.LogBytes += int64(len(buf))
	w.stats.Snapshots++
	if w.seg != nil {
		w.seg.Close()
	}
	w.seg = f
	w.mirror = buf
	w.flushed = len(buf)
	oldIdx := w.segIndex
	w.segIndex = newIdx
	w.commits = 0
	w.lastSync = time.Now()
	if !w.opts.Retain {
		names, err := w.b.List()
		if err != nil {
			return // retention is best-effort
		}
		for _, n := range names {
			if idx, ok := segIndexOf(n); ok && idx <= oldIdx {
				w.b.Remove(n)
			}
		}
	}
}

// segIndexOf parses a segment file name back to its index. Only exact
// writer-produced names qualify: Sscanf alone would accept trailing
// garbage (e.g. "00000001.wal.wal", which passes List's suffix
// filter), and a foreign file must be neither scanned by recovery nor
// deleted by the retention sweep.
func segIndexOf(name string) (int, bool) {
	var idx int
	if _, err := fmt.Sscanf(name, "%08d"+segSuffix, &idx); err != nil {
		return 0, false
	}
	if idx < 0 || name != segName(idx) {
		return 0, false
	}
	return idx, true
}
