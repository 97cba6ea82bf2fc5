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
// frame goes into the writer's write buffer, and nothing reaches the
// backend. The only writes to the active segment are the group flush,
// Sync, Close and a snapshot cut; each flush hands the backend
// everything buffered since the last one in one write and then syncs
// it. With Options.GroupEvery ≤ 1 every record is flushed as it
// is appended. Above 1 a group is counted in commit records: it
// flushes once GroupEvery commits are pending, and the observe,
// retract and compact records in between ride along; no timer flushes
// a quiet stream, because every acknowledgment point syncs (below).
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
// an absorbed record is in the write buffer and in the next snapshot
// whatever the flush returns; a fail-stopped writer absorbs nothing
// further.
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
// A failed backend write or sync — on the active segment or on a
// snapshot cut's fresh segment — is retried at once, up to
// Options.MaxRetries times; the writer never sleeps. A short write
// retries the remaining bytes, which can only leave a torn tail that
// recovery already tolerates. The writer holds its one lock for the
// whole of every operation, retries included, so no other operation
// can interleave with a partially written frame. Once retries are
// exhausted on the active segment the writer goes fail-stop (a
// snapshot cut whose fresh segment fails is abandoned instead, and the
// writer continues on the active segment): the error is sticky (Err,
// Barrier), every further append is a no-op, and a certification gate
// wired through sched.AttachJournal stops granting, so the
// engine surfaces exec.ErrJournalDown rather than acknowledging
// grants that can no longer be made durable. The degradation is
// deliberate: a certifier that cannot log must not admit, so no grant
// is ever acknowledged un-journaled.
//
// # One device
//
// A writer logs to one backend, and its fail-stop is final: nothing
// clears the sticky error (Heal only reports it). The log continues
// through Resume on a new writer, from whatever durable prefix the
// device kept. The chaos differential (internal/experiments'
// TestChaosDifferential) exercises randomized outage plans over this
// path, lockstep-comparing every run against an uninjected twin.
//
// # Lifecycle: cancellation, deadlines, and drain
//
// Barrier neither writes nor syncs — it reports the sticky fail-stop
// error, waiting at most for the operation in progress — so it takes
// no context. No operation sleeps, so none needs interrupting: Close
// waits at most for the operation in progress and its immediate
// retries, flushes with the whole retry budget, and on a fail-stopped
// writer returns the sticky error without writing. CutSnapshot forces
// a segment rotation whose snapshot captures the current replay state; a draining gate calls
// it last, so recovery after a clean drain collapses to the snapshot
// alone. Because the write-ahead contract acknowledges no grant
// before its record is absorbed, a cancellation at any point leaves
// the log (flushed by Close) holding exactly the acknowledged prefix,
// and a crash a prefix short of it by at most the records since the
// last sync — with GroupEvery ≤ 1 none, above it at most one group of
// commits that no returned run reported: Resume rebuilds a
// verdict-identical monitor whether the run completed, was cancelled,
// or crashed (internal/experiments' TestCancelMatrix sweeps
// deterministic cancel points across admissions, barriers, commit
// turns, and drain steps to pin this).
package wal
