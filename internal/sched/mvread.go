package sched

// The read-only bypass contract.
//
// The certification gates never see a declared read-only transaction:
// the engines serve such transactions from a pinned multiversion
// snapshot (exec.VersionedStore) and splice their operations into the
// combined schedule at the snapshot's committed-prefix offset, so the
// gate's monitor certifies exactly the read-write traffic it would
// have certified with no readers present. The obligations split
// cleanly:
//
//   - The gate guarantees the committed prefix is PWSR and (under the
//     block-parallel engine's ascending-id pipeline) serial in commit
//     order — that is what makes a snapshot of the prefix a
//     consistent state no conjunct can tell from a serial execution.
//
//   - The engine guarantees a declared reader observes one such
//     prefix atomically and contributes no writes, so inserting its
//     reads immediately after that prefix in the combined schedule
//     adds no conflict edge from any transaction that follows —
//     per-conjunct serializability of the combination holds with the
//     reader ordered at its snapshot point (the lockstep differential
//     TestMVReadDifferential re-checks the combined schedule with the
//     batch checker).
//
// A reader must therefore never be routed through Pick or AdmitTxn:
// pushing the same reads through the gate creates real read-write
// conflict edges, can change the admission decisions (and hence the
// schedule) of the writers, and can deny or abort the reader —
// exactly what the bypass exists to rule out.
//
// The gates' contribution to the bypass is retention: they expose the
// certifier's Compact watermark below, and an engine wired to a gate
// advances its multiversion store's GC floor to the stamp of the last
// commit at or below that mark (exec.VersionedStore.SetRetainFloor),
// so snapshot retention and certification-state retention follow the
// same low-watermark argument.

// CompactWatermark implements exec.WatermarkReporter: the highest
// transaction id the certifier's Compact has physically reclaimed (0
// before any pass), the retention anchor of the multiversion read path.
func (g *gate) CompactWatermark() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.memo.mon.CompactWatermark()
}
