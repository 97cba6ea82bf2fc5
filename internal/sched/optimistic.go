package sched

import (
	"slices"
	"sync"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/state"
)

// VictimPolicy selects which transaction an optimistic certifier
// sacrifices at a stall. It receives the pending requests, the indices
// of the eligible candidates (non-immune, abortable per
// View.AbortClosure), and the engine view, and returns one of the
// candidate indices, or -1 to decline: the run stalls (exec.ErrStall).
// The gate consults it once per stall.
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

// OptimisticCertify is the certification gate. It gates an inner
// policy behind the online PWSR certifier of internal/core: a pending
// operation is grantable only when the monitor's incremental conflict
// graphs say admitting it keeps every conjunct's projection conflict
// serializable (Definition 2), and each granted operation is fed back
// into the monitor. Where nothing pending is grantable it resolves the
// stall by sacrificing a victim — the victim is retracted from the
// monitor (Monitor.Retract), its engine attempt is erased and
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
// and every run is strongly correct. Definition 2 alone would not do:
// the paper's Example 2 is a PWSR schedule that loses consistency, and
// the delayed-read rule is what refuses it.
//
// Aborts are bounded by two mechanisms. Within a stall, victims
// rotate: no transaction is sacrificed twice in one "phase" (the
// streak since the last granted operation), so a phase lasts at most
// one abort per live transaction — and a fully refreshed population
// has erased every write and holds only fresh monitor nodes, leaving
// some request necessarily grantable. Across stalls, a transaction
// whose abort count reaches the solo threshold (4) escalates to solo
// mode: the gate grants only that transaction until it finishes. A solo
// transaction always completes — no other transaction receives grants,
// so it never acquires outgoing conflict edges (every operation stays
// admissible) and any frozen writer blocking one of its delayed reads
// is aborted by the rotation — and each solo episode retires one
// transaction, so runs terminate instead of thrashing (the classic
// optimistic livelock, two transactions endlessly sacrificing each
// other, escalates to solo after a bounded number of round trips).
// Both arguments assume an inner policy that picks whenever some
// request is admissible and a victim policy that never declines. A
// victim policy returning -1 stalls the run where nothing is
// admissible, and an inner policy that declines admissible requests (a
// Script whose next transaction is blocked, say) stalls it at once:
// Victim sacrifices only where nothing was admissible. Both return
// exec.ErrStall.
type OptimisticCertify struct {
	// Inner picks among the admissible requests.
	Inner exec.Policy
	// VictimSelect selects the sacrifice at a stall; nil means
	// VictimYoungest.
	VictimSelect VictimPolicy

	// mu serializes the gate's entry points so batch admissions from a
	// ParallelEngine's committers interleave safely with an engine's
	// tick loop, and so a stats snapshot never races either. A
	// single-engine run takes it uncontended.
	mu sync.Mutex

	// jn carries the optional write-ahead journal (see AttachJournal):
	// lifecycle events reach it through the certifier's sink, and the
	// gate barriers before acknowledging grants, retractions, commits
	// and batch admissions.
	jn journaled

	// tinj is the optional deterministic fault hook consulted once per
	// Pick (see SetFaultInjector).
	tinj tickInjector

	// lc is the gate's lifecycle posture (see Drain and Close): while
	// draining only transactions live at drain start receive grants,
	// and a closed gate grants nothing.
	lc lifecycle

	// memo carries the admissibility verdicts from tick to tick and
	// holds the per-tick scratch (see verdictMemo). Its certifier is the
	// gate's.
	memo verdictMemo

	// soloThreshold is the abort count at which a transaction escalates
	// to solo mode; 0 means 4.
	soloThreshold int
	aborts        map[int]int
	// phase lists the transactions sacrificed since the last grant,
	// ascending; none is sacrificed twice in one phase.
	phase []int
	// solo is the escalated transaction currently granted exclusively
	// (0 = none).
	solo int
}

var _ exec.Gate = (*OptimisticCertify)(nil)

// NewOptimisticCertify returns a certification gate over the conjunct
// partition. victim selects the sacrifice policy (nil =
// VictimYoungest).
func NewOptimisticCertify(partition []state.ItemSet, inner exec.Policy, victim VictimPolicy) *OptimisticCertify {
	return NewOptimisticCertifyOver(core.NewMonitor(partition), inner, victim)
}

// NewOptimisticCertifyOver returns the certification gate over an
// explicit certifier — the recovery path: rebuild the monitor with
// wal.Resume, then gate new traffic over it with the resumed journal
// attached (ResumeCertify does both). victim selects the sacrifice
// policy (nil = VictimYoungest).
func NewOptimisticCertifyOver(mon Certifier, inner exec.Policy, victim VictimPolicy) *OptimisticCertify {
	return &OptimisticCertify{
		Inner:        inner,
		VictimSelect: victim,
		memo:         verdictMemo{mon: mon},
		aborts:       make(map[int]int),
	}
}

// Monitor exposes the gate's certifier, for inspection after a run. To
// change certification state through it while a run is ticking, fetch
// it anew before each change: handing the certifier out moves the global
// epoch, which invalidates the verdicts the gate carries between ticks.
func (g *OptimisticCertify) Monitor() Certifier {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.memo.global++
	return g.memo.mon
}

// Pick implements exec.Policy: an injected tick fault passes the tick,
// a frozen journal or a closed gate grants nothing, and otherwise the
// memo masks the pending requests — posture, solo exclusivity, the
// delayed-read rule and the certifier — and the inner policy's choice
// among the admissible ones is committed to the monitor. A request
// denied on a previous tick keeps its memoized verdict until something
// moves in its item's conjuncts, so the steady-state tick costs integer
// compares rather than reachability searches.
func (g *OptimisticCertify) Pick(pending []*exec.Request, v *exec.View) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if v != g.memo.view { // a new run: the last may have failed mid-run
		g.solo, g.phase = 0, g.phase[:0]
		clear(g.aborts)
	}
	if g.tinj.tick() {
		return exec.PassTick // injected tick fault: skip, re-pick next tick
	}
	if g.jn.frozen() || g.lc.closed {
		return -1 // journal fail-stop or closed gate: certify nothing further
	}
	g.memo.mask(pending, v, &g.lc, g.solo)
	pick := g.memo.grant(pending, v, g.Inner, &g.jn)
	if pick >= 0 {
		g.phase = g.phase[:0] // a grant ends the current sacrifice phase
	}
	return pick
}

// Victim implements exec.Gate: choose a sacrifice among the abortable
// pending transactions not yet sacrificed this phase, sparing the
// immune (most-aborted) transaction until it is the only choice left.
func (g *OptimisticCertify) Victim(pending []*exec.Request, v *exec.View) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.jn.frozen() || g.memo.declined {
		// A journal fail-stop: no sacrifice can be made durable. An
		// inner policy that declined admissible requests: the stall is
		// its choice, and the gate does not abort on its behalf.
		return -1
	}
	immune := g.immune(pending, v)
	immuneIdx := g.candidates(pending, v, immune, false)
	if len(g.memo.idx) == 0 && immuneIdx < 0 {
		// Defensive: every abortable transaction was already sacrificed
		// this phase (cannot arise under the gate's own discipline — a
		// fully refreshed population always has an admissible request);
		// start a fresh phase rather than stall.
		g.phase = g.phase[:0]
		immuneIdx = g.candidates(pending, v, immune, true)
	}
	switch {
	case len(g.memo.idx) == 0:
		return immuneIdx
	case g.VictimSelect != nil:
		return g.VictimSelect(pending, g.memo.idx, v)
	}
	return VictimYoungest(pending, g.memo.idx, v)
}

// candidates fills g.memo.idx with the victim candidates among the
// abortable pending transactions (those sacrificed this phase too when
// includePhase is set) and returns the index of the first immune one,
// the fallback when no other is left (-1 = none).
func (g *OptimisticCertify) candidates(pending []*exec.Request, v *exec.View, immune int, includePhase bool) int {
	candidates, immuneIdx := g.memo.idx[:0], -1
	for i, r := range pending {
		if _, in := slices.BinarySearch(g.phase, r.TxnID); in && !includePhase {
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
	g.memo.idx = candidates
	return immuneIdx
}

// immune returns the transaction spared from victim selection: the solo
// transaction while one is escalated, otherwise the most-aborted pending
// one (ties: lowest id) — at a stall every live transaction is pending.
func (g *OptimisticCertify) immune(pending []*exec.Request, v *exec.View) int {
	if g.solo != 0 && v.Live[g.solo] {
		return g.solo
	}
	immune, best := -1, -1
	for _, r := range pending {
		if n := g.aborts[r.TxnID]; n > best || (n == best && r.TxnID < immune) {
			immune, best = r.TxnID, n
		}
	}
	return immune
}

// TxnAborted implements exec.Gate: roll the sacrificed attempt out of
// certification state so the monitor again equals a fresh replay of the
// surviving schedule, and count the sacrifice toward solo escalation.
func (g *OptimisticCertify) TxnAborted(id int, v *exec.View) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.aborts[id]++
	if i, in := slices.BinarySearch(g.phase, id); !in {
		g.phase = slices.Insert(g.phase, i, id)
	}
	threshold := g.soloThreshold
	if threshold <= 0 {
		threshold = 4
	}
	if g.solo == 0 && g.aborts[id] >= threshold {
		g.solo = id
	}
	g.retract(id)
}

// TxnCanceled implements exec.Gate: a cancelled or failed engine run
// aborts the attempt through the same retraction path a victim takes,
// so the monitor and journal end in the state a completed run that
// aborted the transaction would have left — cancel equals abort, minus
// the restart.
func (g *OptimisticCertify) TxnCanceled(id int, v *exec.View) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cancel(id)
}

// TxnFinished implements exec.Policy: the finished transaction is
// committed to the certifier, under the gate mutex: it will issue no
// further operations, so the compactor may reclaim its certification
// state once no future cycle can reach it (see core.Monitor.Compact).
// Without this signal the certifier would retain every finished
// transaction and a long-lived gate's memory would grow with the
// stream. Its abort count goes with it: a finished transaction is
// durable and can never be a victim again.
func (g *OptimisticCertify) TxnFinished(id int, v *exec.View) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.forget(id)
	g.memo.commit(id)
	g.jn.ack()
	g.Inner.TxnFinished(id, v)
}

// cancel rolls transaction id out of the gate for good, under the gate
// mutex — a cancelled or failed run's attempt, or one a drain gives up
// on: its abort count and solo escalation are dropped and its attempt
// retracted.
func (g *OptimisticCertify) cancel(id int) {
	g.forget(id)
	g.retract(id)
}

// forget drops transaction id's abort count and solo escalation.
func (g *OptimisticCertify) forget(id int) {
	delete(g.aborts, id)
	if id == g.solo {
		g.solo = 0
	}
}

// retract rolls transaction id's attempt out of certification state,
// under the gate mutex, so the certifier again equals a fresh replay of
// the surviving schedule: retraction, the memo's epochs, the journal
// barrier. The inner policy only picks; it is not told of aborts.
func (g *OptimisticCertify) retract(id int) {
	g.memo.mon.Retract(id)
	g.memo.settle(id)
	g.jn.ack()
}

// Settle implements exec.Gate: every commit the gate acknowledged so
// far is made durable before the engine reports it (see
// journaled.settle). Without a journal it returns nil.
func (g *OptimisticCertify) Settle() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.jn.settle()
}

// Stats implements exec.Gate: the certifier's lifecycle counters, the
// journal's counters and the gate's health, snapshotted under one hold
// of the gate mutex, so an engine's harvest never races another engine
// ticking or admitting through the same gate.
func (g *OptimisticCertify) Stats() exec.GateStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	cs := g.memo.mon.CompactStats()
	return exec.GateStats{
		Compact: exec.CompactStats{
			Compactions:   cs.Compactions,
			ReclaimedTxns: cs.ReclaimedTxns,
			ReclaimedOps:  cs.ReclaimedOps,
			LiveTxns:      cs.LiveTxns,
		},
		Log:    g.jn.logStats(),
		Health: g.health(),
	}
}
