// Package sched implements interleaving policies for the execution
// engine: scripted and randomized interleavings for reproducing and
// fuzzing schedules, and concurrency-control protocols — conservative
// strict two-phase locking (C2PL), predicate-wise conservative 2PL
// (PW-C2PL) that releases each conjunct data set's locks as soon as the
// transaction is done with that set, and a delayed-read (DR) gate that
// blocks reads from transactions that have not finished (Section 3.2's
// ACA-like restriction).
//
// # The gate contracts
//
// The certification gate, OptimisticCertify, is a whole exec.Gate —
// the one contract the engines assert, once, when a run or engine
// starts, victim selection and abort notices included. Downstream, it
// asks one complete Journal of its write-ahead log (the sink, Barrier,
// Sync, Heal, LoggedSeq, CutSnapshot, Stats and Close) and one
// Certifier of its monitor; neither is probed for optional methods. The
// inner policy only picks among the admissible requests: it is told of
// finishes, never of aborts or cancels. A caller that wants a gate that
// never aborts passes a VictimPolicy that declines: the run then stalls
// where nothing is admissible.
//
// # Lifecycle: cancellation, deadlines, and drain
//
// The certification gate takes no context on its admission paths:
// the engines check theirs between scheduling steps and before every
// batch commit turn, so a cancelled run or batch never reaches the gate
// and a refused admission leaves no trace. The gate shuts down in
// two stages. Drain stops new transactions (refusals carry
// exec.ErrDraining), settles in-flight ones per the DrainPolicy —
// DrainWait lets them finish, DrainAbort retracts them immediately —
// then flushes the journal barrier, runs a final compact pass, and
// cuts a recovery snapshot; it always terminates within its context's
// deadline, retracting the unfinished remainder when time runs out.
// Close is the terminal latch (exec.ErrGateClosed) and releases the
// journal. The posture rides in Health().Draining/Closed.
//
// Two invariants hold throughout. Never an un-journaled grant: a
// grant is acknowledged only after its record reaches the journal, so
// a cancellation can never manufacture a granted-but-unlogged
// admission or lose a logged one. Cancel equals abort: a cancelled
// (or failed) run's in-flight transactions are retracted through
// TxnCanceled —
// the same journaled Retract path a victim's abort takes — so the
// monitor and the WAL end in exactly the state a completed run that
// aborted those transactions would have left, and wal.Resume recovers
// a verdict-identical monitor either way. Note the in-flight/resident
// distinction: a committed transaction stays monitor-resident until a
// compaction reclaims it, but it is not in-flight — Drain waits on
// (and deadline-retracts) Certifier.InFlightTxnIDs only.
//
// # Incremental ticks
//
// A certification gate decides every pending request at every tick but
// re-decides only what moved. A verdict — the delayed-read rule, then
// Certifier.Admissible — reads only the conflict graphs of the conjuncts
// its item belongs to and, in the view, that item's last writer and
// whether it finished. PWSR is predicate-wise (Definition 2: each
// conjunct's projection is certified on its own), so a grant, abort or
// commit inside other conjuncts cannot change it, and the rule is exact:
// every conjunct has a monotone epoch (items outside every conjunct
// share one more), a verdict is stamped with the sum over its item's
// conjuncts and reused while the sum stands. A grant moves the epochs of
// the granted request's own item's conjuncts; an abort, cancel or commit
// those of every conjunct the transaction was granted in (a commit
// changes no graph but frees the readers its writes delayed). What
// reaches the certifier without naming a conjunct — batch admission, a
// compaction pass, a drain's retractions, a caller handed Monitor(), a
// new run's view — moves a global epoch under every stamp. Verdicts sit
// in a table indexed by the request's run slot (exec.Request.Slot),
// tagged with the transaction, action and item they decided, and are
// re-decided in place; the slot is only a cache index, so a wrong or
// shared one costs re-probes, never a decision. Posture, solo and the
// journal's freeze are compares made every tick. No option turns the
// memo off.
package sched

import (
	"fmt"

	"pwsr/internal/state"
)

// LockMode is shared (read) or exclusive (write).
type LockMode uint8

const (
	// Shared is a read lock; compatible with other shared locks.
	Shared LockMode = iota
	// Exclusive is a write lock; compatible with nothing.
	Exclusive
)

// String renders the mode.
func (m LockMode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

// lockState tracks the holders of one item's lock.
type lockState struct {
	mode    LockMode
	holders map[int]bool
}

// LockTable is a shared/exclusive lock table keyed by data item, with
// atomic batch acquisition (all-or-nothing) as used by the conservative
// protocols.
type LockTable struct {
	locks map[string]*lockState
	// held tracks, per transaction, the items it holds with their mode.
	held map[int]map[string]LockMode
}

// NewLockTable returns an empty lock table.
func NewLockTable() *LockTable {
	return &LockTable{
		locks: make(map[string]*lockState),
		held:  make(map[int]map[string]LockMode),
	}
}

// request is one (item, mode) pair of a batch.
type request struct {
	item string
	mode LockMode
}

// batchOf builds the request list for a read-set/write-set pair; items
// in both sets lock exclusively.
func batchOf(reads, writes state.ItemSet) []request {
	var out []request
	for _, it := range writes.Sorted() {
		out = append(out, request{item: it, mode: Exclusive})
	}
	for _, it := range reads.Sorted() {
		if !writes.Contains(it) {
			out = append(out, request{item: it, mode: Shared})
		}
	}
	return out
}

// available reports whether txn id could acquire (item, mode) right now.
func (t *LockTable) available(id int, item string, mode LockMode) bool {
	ls, ok := t.locks[item]
	if !ok || len(ls.holders) == 0 {
		return true
	}
	if ls.holders[id] {
		// Already held; an upgrade to exclusive needs sole ownership.
		if mode == Exclusive && (ls.mode != Exclusive) {
			return len(ls.holders) == 1
		}
		return true
	}
	return mode == Shared && ls.mode == Shared
}

// CanAcquire reports whether the whole batch (reads shared, writes
// exclusive) is available to txn id atomically.
func (t *LockTable) CanAcquire(id int, reads, writes state.ItemSet) bool {
	for _, r := range batchOf(reads, writes) {
		if !t.available(id, r.item, r.mode) {
			return false
		}
	}
	return true
}

// Acquire takes the whole batch for txn id. It returns an error if any
// part is unavailable (callers should check CanAcquire first; Acquire
// never partially applies).
func (t *LockTable) Acquire(id int, reads, writes state.ItemSet) error {
	if !t.CanAcquire(id, reads, writes) {
		return fmt.Errorf("sched: lock batch unavailable for T%d", id)
	}
	for _, r := range batchOf(reads, writes) {
		ls, ok := t.locks[r.item]
		if !ok {
			ls = &lockState{holders: make(map[int]bool)}
			t.locks[r.item] = ls
		}
		ls.holders[id] = true
		if r.mode == Exclusive || len(ls.holders) == 1 {
			// A sole holder sets the mode; an upgrade raises it.
			if r.mode == Exclusive {
				ls.mode = Exclusive
			} else if len(ls.holders) == 1 {
				ls.mode = Shared
			}
		}
		if t.held[id] == nil {
			t.held[id] = make(map[string]LockMode)
		}
		if cur, ok := t.held[id][r.item]; !ok || r.mode > cur {
			t.held[id][r.item] = r.mode
		}
	}
	return nil
}

// ReleaseItems releases txn id's locks on the given items.
func (t *LockTable) ReleaseItems(id int, items state.ItemSet) {
	for it := range items {
		if ls, ok := t.locks[it]; ok {
			delete(ls.holders, id)
			if len(ls.holders) == 0 {
				delete(t.locks, it)
			} else {
				// Remaining holders of a formerly exclusive lock cannot
				// exist; remaining holders are shared.
				ls.mode = Shared
			}
		}
		delete(t.held[id], it)
	}
	if len(t.held[id]) == 0 {
		delete(t.held, id)
	}
}

// ReleaseAll releases every lock txn id holds.
func (t *LockTable) ReleaseAll(id int) {
	items := state.NewItemSet()
	for it := range t.held[id] {
		items.Add(it)
	}
	t.ReleaseItems(id, items)
}

// Holds reports whether txn id holds a lock on item.
func (t *LockTable) Holds(id int, item string) bool {
	_, ok := t.held[id][item]
	return ok
}

// HoldsAny reports whether txn id holds any lock.
func (t *LockTable) HoldsAny(id int) bool { return len(t.held[id]) > 0 }
