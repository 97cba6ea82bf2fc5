package sched

import (
	"slices"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/state"
)

// VictimPolicy selects which transaction an optimistic certifier
// sacrifices at a stall. It receives the pending requests, the indices
// of the eligible candidates (non-immune, abortable per
// View.AbortClosure), and the engine view, and returns one of the
// candidate indices.
type VictimPolicy func(pending []*exec.Request, candidates []int, v *exec.View) int

// VictimYoungest picks the candidate whose transaction started latest
// (no granted operation yet = youngest of all; ties go to the higher
// id). Sacrificing the youngest wastes the least sunk work and lets
// older transactions age toward completion — the wound-wait intuition.
func VictimYoungest(pending []*exec.Request, candidates []int, v *exec.View) int {
	best, bestKey := -1, -1
	for _, c := range candidates {
		if key := startKey(v, pending[c].TxnID); key > bestKey {
			best, bestKey = c, key
		}
	}
	return best
}

// VictimFewestOps picks the candidate with the fewest granted
// operations in the current schedule — the cheapest attempt to throw
// away by wasted-work count (ties go to the youngest).
func VictimFewestOps(pending []*exec.Request, candidates []int, v *exec.View) int {
	best, bestOps, bestAge := -1, -1, -1
	for _, c := range candidates {
		id := pending[c].TxnID
		n, age := v.OpCount(id), startKey(v, id)
		if best == -1 || n < bestOps || (n == bestOps && age > bestAge) {
			best, bestOps, bestAge = c, n, age
		}
	}
	return best
}

// startKey orders transactions by when their current attempt started:
// the schedule position of its first surviving operation, or past the
// schedule's end for one with none yet (higher id youngest-most).
func startKey(v *exec.View, id int) int {
	if pos, started := v.FirstOp(id); started {
		return pos
	}
	return len(v.Ops) + id
}

// OptimisticCertify is the abort-capable reading of the certification
// gate: like Certify it only grants operations the online PWSR monitor
// certifies, but where Certify lets an infeasible conflict pattern
// stall the whole run, OptimisticCertify implements exec.Restarter and
// resolves the stall by sacrificing a victim — the victim is retracted
// from the monitor (Monitor.Retract), its engine attempt is erased and
// restarted, and the run proceeds.
//
// The gate is cascadeless: alongside certification it applies the
// delayed-read discipline (a read of an item whose last writer is live
// is not grantable — the DelayedRead gate's rule, the ACA discipline
// real certifiers pair with aborts). Dirty reads are what make aborts
// expensive: a victim whose written value was read by a live
// transaction drags the reader down with it (the engine cascades), and
// one read by a *finished* transaction pins the victim entirely —
// durable state cannot be erased, so the stall becomes unresolvable.
// With delayed reads every abort closure is the victim alone and no
// victim is ever pinned. The payoff is the paper's: schedules are PWSR
// and DR by construction, so for correct programs Theorem 2 applies
// and every run is strongly correct — the blocking gate certifies
// PWSR alone and cannot claim this.
//
// Progress is guaranteed by two mechanisms. Within a stall, victims
// rotate: no transaction is sacrificed twice in one "phase" (the
// streak since the last granted operation), so a phase lasts at most
// one abort per live transaction — and a fully refreshed population
// has erased every write and holds only fresh monitor nodes, leaving
// some request necessarily grantable. Across stalls, a transaction
// whose abort count reaches SoloThreshold escalates to solo mode: the
// gate grants only that transaction until it finishes. A solo
// transaction always completes — no other transaction receives grants,
// so it never acquires outgoing conflict edges (every operation stays
// admissible) and any frozen writer blocking one of its delayed reads
// is aborted by the rotation — and each solo episode retires one
// transaction, so runs terminate instead of thrashing (the classic
// optimistic livelock, two transactions endlessly sacrificing each
// other, escalates to solo after a bounded number of round trips).
// Runs therefore do not return exec.ErrStall; the engine's abort
// budget remains as a defensive backstop.
type OptimisticCertify struct {
	gate
	// VictimSelect selects the sacrifice at a stall; nil means
	// VictimYoungest.
	VictimSelect VictimPolicy
	// SoloThreshold is the abort count at which a transaction escalates
	// to solo mode; 0 means the default of 4.
	SoloThreshold int

	aborts map[int]int
	// phase lists the transactions sacrificed since the last grant,
	// ascending; none is sacrificed twice in one phase.
	phase []int
	// solo is the escalated transaction currently granted exclusively
	// (0 = none).
	solo int
}

// NewOptimisticCertify returns an abort-capable certification gate over
// the conjunct partition. victim selects the sacrifice policy (nil =
// VictimYoungest).
func NewOptimisticCertify(partition []state.ItemSet, inner exec.Policy, victim VictimPolicy) *OptimisticCertify {
	return NewOptimisticCertifyOver(core.NewMonitor(partition), inner, victim)
}

// Pick implements exec.Policy like Certify.Pick, with the cascadeless
// discipline layered in: a request must pass both the delayed-read
// rule and the certifier before the inner policy may choose it; the
// choice is committed to the monitor.
func (c *OptimisticCertify) Pick(pending []*exec.Request, v *exec.View) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v != c.memo.view { // a new run: the last may have failed mid-run
		c.solo, c.phase = 0, c.phase[:0]
		clear(c.aborts)
	}
	pick := c.pick(pending, v, c.solo, true)
	if pick >= 0 {
		c.phase = c.phase[:0] // a grant ends the current sacrifice phase
	}
	return pick
}

// Victim implements exec.Restarter: choose a sacrifice among the
// abortable pending transactions not yet sacrificed this phase,
// sparing the immune (most-aborted) transaction until it is the only
// choice left.
func (c *OptimisticCertify) Victim(pending []*exec.Request, v *exec.View) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.jn.frozen() {
		return -1 // journal fail-stop or shed: no sacrifice can be made durable
	}
	immune := c.immune(pending, v)
	if i := c.victimAmong(pending, v, immune, false); i >= 0 {
		return i
	}
	// Defensive: every abortable transaction was already sacrificed
	// this phase (cannot arise under the gate's own discipline — a
	// fully refreshed population always has an admissible request);
	// start a fresh phase rather than stall.
	c.phase = c.phase[:0]
	return c.victimAmong(pending, v, immune, true)
}

// victimAmong runs the victim policy over the abortable pending
// transactions (those sacrificed this phase too when includePhase is
// set), falling back to the first immune one when no other is left.
func (c *OptimisticCertify) victimAmong(pending []*exec.Request, v *exec.View, immune int, includePhase bool) int {
	candidates, immuneIdx := c.memo.idx[:0], -1
	for i, r := range pending {
		if _, in := slices.BinarySearch(c.phase, r.TxnID); in && !includePhase {
			continue // already sacrificed this phase
		}
		closure, ok := v.AbortClosure(r.TxnID)
		if !ok {
			continue // pinned by a finished reader (non-DR inner use)
		}
		// A victim whose cascade would take the immune transaction down
		// with it defeats the aging scheme; treat it like the immune
		// transaction itself. (Under the gate's own delayed-read
		// discipline every closure is a singleton.)
		if r.TxnID != immune && !slices.Contains(closure, immune) {
			candidates = append(candidates, i)
		} else if immuneIdx < 0 {
			immuneIdx = i
		}
	}
	c.memo.idx = candidates
	if len(candidates) == 0 {
		return immuneIdx
	}
	if c.VictimSelect != nil {
		return c.VictimSelect(pending, candidates, v)
	}
	return VictimYoungest(pending, candidates, v)
}

// immune returns the transaction spared from victim selection: the solo
// transaction while one is escalated, otherwise the most-aborted pending
// one (ties: lowest id) — at a stall every live transaction is pending.
func (c *OptimisticCertify) immune(pending []*exec.Request, v *exec.View) int {
	if c.solo != 0 && v.Live[c.solo] {
		return c.solo
	}
	immune, best := -1, -1
	for _, r := range pending {
		if n := c.aborts[r.TxnID]; n > best || (n == best && r.TxnID < immune) {
			immune, best = r.TxnID, n
		}
	}
	return immune
}

// TxnAborted implements exec.Restarter: roll the sacrificed attempt out
// of certification state so the monitor again equals a fresh replay of
// the surviving schedule, and count the sacrifice toward solo
// escalation.
func (c *OptimisticCertify) TxnAborted(id int, v *exec.View) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.aborts[id]++
	if i, in := slices.BinarySearch(c.phase, id); !in {
		c.phase = slices.Insert(c.phase, i, id)
	}
	threshold := c.SoloThreshold
	if threshold <= 0 {
		threshold = 4
	}
	if c.solo == 0 && c.aborts[id] >= threshold {
		c.solo = id
	}
	c.retract(id)
}

// TxnCanceled implements exec.Gate: the cancelled attempt is
// retracted exactly as a sacrificed victim would be, and its
// per-transaction lifecycle state (abort count, solo escalation) is
// dropped — cancel equals abort, minus the restart.
func (c *OptimisticCertify) TxnCanceled(id int, v *exec.View) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.forget(id)
	c.retract(id)
}

// TxnFinished implements exec.Policy: the finished transaction is
// committed to the certifier, which may then reclaim it, and the gate's
// own per-transaction lifecycle state — its abort count — is dropped
// with it. A finished transaction is durable: it can never be a
// victim again, so keeping its counters would only leak memory across a
// long stream.
func (c *OptimisticCertify) TxnFinished(id int, v *exec.View) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.forget(id)
	c.finish(id, v)
}

// forget drops transaction id's abort count and solo escalation.
func (c *OptimisticCertify) forget(id int) {
	delete(c.aborts, id)
	if id == c.solo {
		c.solo = 0
	}
}
