// Package wal is the crash-safe durability layer for the online PWSR
// certifier: it persists a monitor's Observe/Commit/Retract/Compact
// lifecycle stream (core.LifecycleSink) as a framed append-only log,
// cuts snapshots at the compaction low watermark, and rebuilds a
// monitor with bit-identical verdict state from whatever prefix of
// the log survived a crash.
//
// # Log format
//
// A log is a set of segment files named 00000000.wal, 00000001.wal, …
// inside a Backend. Each segment starts with an 8-byte magic header
// and then holds framed records:
//
//	uvarint payloadLen | crc32c(payload) LE32 | payload
//
// Every payload begins with a kind byte and the event's sequence
// number (a uvarint, global and monotone across segments and process
// restarts), so any record maps back to its position in the logical
// lifecycle stream. Observe records carry the operation (transaction,
// action, position, value, entity); compact records additionally
// carry the ids the pass reclaimed, which recovery cross-checks
// against its own deterministic replay. A segment other than the
// first begins with a snapshot section — snapshot-begin, the live
// lifecycle events surviving at the cut, snapshot-end — after which
// the segment's ordinary records are the suffix to replay on top.
//
// # Write-ahead contract and group commit
//
// The Writer is a core.LifecycleSink: each lifecycle event is framed
// as the monitor applies it, and appending is a memory copy — the
// frame goes into the writer's mirror of the active segment, which is
// also its write buffer, and nothing reaches the backend. The only
// writes to the active segment are the group flush, Sync, Close, a
// snapshot cut and a failover or Heal rebase; each flush hands the
// backend everything buffered since the last one in one write and then
// syncs it. With Options.GroupEvery ≤ 1 every record is flushed as it
// is appended. Above 1 a group is counted in commit records: it
// flushes once GroupEvery commits are pending (or when
// Options.GroupWindow expires), and the observe, retract and compact
// records in between ride along.
//
// Durability is owed at acknowledgment, not at grant. A certification
// gate calls Barrier after observing a granted operation and before
// granting it (see sched.AttachJournal); Barrier reports backend
// failure only and neither writes nor syncs, because a grant is
// visible to nobody outside the pipeline. What leaves the pipeline is a
// run's Result, and every run exit calls the gate's Settle, which calls
// Sync: once a run returns, every commit it reports is durable. Sync
// with nothing pending is a no-op, so a run whose last group flush or
// snapshot cut already covered everything pays no extra fsync. A crash
// mid-run loses at most the records absorbed since the last sync — up
// to one group of GroupEvery commits and the records between them,
// none of which any returned Result reported. GroupEvery ≤ 1 keeps the
// per-grant barrier for feeders that resume in-flight transactions
// across a crash. A record's bookkeeping (the surviving stream, the
// snapshot counters, the cut cadence) is applied before its flush, so
// an absorbed record is in the mirror and in the next snapshot whatever
// the flush returns; a fail-stopped writer absorbs nothing further.
//
// # Snapshots and retention
//
// Every Options.SnapshotEvery compaction passes the writer cuts a
// snapshot: it syncs the active segment (so the cut point is
// durable), creates the next segment, and writes the surviving
// lifecycle stream — maintained incrementally from the sinked events,
// filtered on every retract and reclamation — as the new segment's
// snapshot section, then syncs and (unless Options.Retain) deletes
// the older segments. On FileBackend the cut's delete-after-create
// ordering is durable, not just issued: Create fsyncs the log
// directory before returning, so the new segment's directory entry is
// on disk before any superseded segment is unlinked — an OS crash
// cannot persist the deletes while losing the snapshot that justified
// them (Remove fsyncs the directory too, keeping unlinks durable). Recovery replays the snapshot instead of the
// whole history, so log replay work is bounded by the live working
// set plus one snapshot interval, mirroring the monitor's own
// bounded-memory compaction argument. A crash mid-cut is harmless:
// the torn snapshot segment is ignored and recovery falls back to the
// previous segment, whose suffix records are still complete.
//
// # Recovery
//
// Recover scans the segments, picks the newest one whose snapshot
// section is complete (or the genesis segment), decodes records until
// the first torn or corrupt frame (a short tail, a CRC mismatch, a
// truncated header — all are treated as the end of the durable
// prefix, never an error), and hands the snapshot and suffix to
// core.Recover. The result is verdict-identical to the monitor that
// wrote the prefix: same admissibility verdicts, conflict edges,
// sticky violation (cycle witness included), live-transaction set,
// and lifecycle counters. TestCrashMatrix proves this by killing the
// log at every byte offset (plus torn and corrupted tail variants)
// and lockstep-comparing the recovered monitor against an
// uninterrupted reference. Resume additionally returns a Writer
// positioned to continue the log: it cuts a fresh baseline snapshot
// so the recovered state is immediately durable in one self-contained
// segment.
//
// # Failure handling
//
// Backend write and sync errors are retried with bounded backoff:
// attempt n sleeps a uniformly jittered duration in [d/2, d] with
// d = min(RetryBackoff×(n+1), RetryBackoffMax), so concurrent writers
// recovering from a shared outage don't stampede the device in
// lockstep, and a generous linear ramp cannot grow into unbounded
// admission stalls (Options.MaxRetries, Options.RetryBackoff,
// Options.RetryBackoffMax). A short write retries the remaining
// bytes, which can only leave a torn tail that recovery already
// tolerates. Retry sleeps happen off the writer's state lock: during
// an outage only the feeding goroutine (and mutators queued behind
// the operation lock) stalls, for at most the bounded total retry
// latency before fail-stop, while the inspection methods (Barrier,
// Err, Stats, Seq) stay responsive throughout. Once retries are
// exhausted the writer goes fail-stop: the error is sticky (Err,
// Barrier), every further append is a no-op, and a certification gate
// wired through sched.AttachJournal stops granting, so the
// engine surfaces exec.ErrJournalDown rather than acknowledging
// grants that can no longer be made durable. The degradation is
// deliberate: a certifier that cannot log must not admit, so no grant
// is ever acknowledged un-journaled.
//
// # Failover and healing
//
// FailoverBackend chains an ordered list of backends (primary first)
// behind the Backend interface: when the writer's retry budget is
// exhausted against the current member, the writer asks the chain to
// promote the next standby and resynchronizes it from its in-memory
// mirror — a byte-exact image of the active segment — by recreating
// the same-named segment, so sequence numbers and compact-point cuts
// continue without a gap (strict seq continuity across promotion).
// Promotion is latched: the chain never fails back on its own, and
// the sticky Demoted/Promoted events are queryable through
// FailoverBackend.Events and counted in Stats.Failovers. Writer.Heal
// performs the same mirror rebase in place for a fail-stopped writer
// whose device came back (counted in Stats.Heals); no certification
// gate calls it. Recovery needs no special
// failover handling — it reads whichever backend survived, and the
// mirror rebase guarantees the surviving log is a byte prefix of the
// logical stream. The chaos differential (`make chaos`) exercises
// randomized outage plans over this machinery, lockstep-comparing
// every run against an uninjected twin.
//
// # Lifecycle: cancellation, deadlines, and drain
//
// Barrier never blocks — it reports the sticky fail-stop error and
// neither writes nor syncs — so it takes no context. Close interrupts
// a retry backoff that is sleeping: the
// stalled operation fails fast wrapping ErrWriterClosing instead of
// holding shutdown behind the remaining jittered sleeps (a zero
// RetryBackoff never sleeps, so Close's own final flush keeps its
// whole retry budget against a torn write), and the
// sticky fail-stop error keeps ErrWriterClosing in its chain so a
// close-interrupted outage is errors.Is-distinguishable from one that
// exhausted its retries. CutSnapshot forces a segment rotation whose
// snapshot captures the current replay state; a draining gate calls
// it last, so recovery after a clean drain collapses to the snapshot
// alone. Because the write-ahead contract acknowledges no grant
// before its record is absorbed, a cancellation at any point leaves
// the log (flushed by Close) holding exactly the acknowledged prefix,
// and a crash a prefix short of it by at most the records since the
// last sync — with GroupEvery ≤ 1 none, above it at most one group of
// commits that no returned run reported: Resume rebuilds a
// verdict-identical monitor whether the run completed, was cancelled,
// or crashed (the cancel matrix, `make cancel-matrix`, sweeps
// deterministic cancel points across admissions, barriers, commit
// turns, and drain steps to pin this).
package wal
