package sched

import (
	"fmt"
	"slices"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// maskAudit wraps a certification gate and, at every Pick, recomputes
// the admissibility mask from scratch — posture, solo, delayed-read
// rule and a fresh Admissible probe per request, the expression the
// gates evaluated every tick before they carried verdicts — and
// requires the gate's memoized mask to equal it. The memo has no off
// switch to run a twin against, so the reference is rebuilt here, on a
// probe-only path that commits nothing. It also counts the situations
// that would expose a missing invalidation, so a campaign that never
// met them fails as vacuous.
type maskAudit struct {
	t    *testing.T
	gate exec.Policy
	memo *verdictMemo
	lc   *lifecycle
	solo func() int
	dr   bool

	// meddle, when set, changes certification state behind the engine's
	// back before the tick is audited.
	meddle func(a *maskAudit, pending []*exec.Request)

	tick, picks  int
	open, probes int // open requests seen, and how many of them the gate re-probed
	hazards      map[string]int
	prev         map[int]auditSeen
	lastSolo     int
	lastPasses   int
	foreign      int // an uncommitted transaction planted through Monitor(), 0 = none
}

// auditSeen is what one transaction had pending at the previous tick,
// and the writer that delayed it (0 = none).
type auditSeen struct {
	action  txn.Action
	entity  string
	blocker int
}

func newMaskAudit(t *testing.T, gate exec.Policy) *maskAudit {
	a := &maskAudit{t: t, gate: gate, hazards: make(map[string]int), solo: func() int { return 0 }}
	switch g := gate.(type) {
	case *Certify:
		a.memo, a.lc = &g.memo, &g.lc
	case *ParallelCertify:
		a.memo, a.lc, a.dr = &g.memo, &g.lc, true
		a.solo = func() int { return g.solo }
	case *OptimisticCertify:
		a.memo, a.lc, a.dr = &g.memo, &g.lc, true
		a.solo = func() int { return g.solo }
	default:
		t.Fatalf("unknown gate %T", gate)
	}
	return a
}

func (a *maskAudit) Pick(pending []*exec.Request, v *exec.View) int {
	a.tick++
	if a.meddle != nil {
		a.meddle(a, pending)
	}
	mon := a.memo.mon
	solo := a.solo()
	if solo != a.lastSolo {
		a.hazards["solo enter/leave"]++
		a.lastSolo = solo
	}
	if n := mon.CompactStats().Compactions; n != a.lastPasses {
		a.hazards["compaction between ticks"]++
		a.lastPasses = n
	}
	fresh := make([]bool, len(pending))
	now := make(map[int]auditSeen, len(pending))
	for i, r := range pending {
		open := !a.lc.blocked(r.TxnID) && (solo == 0 || r.TxnID == solo)
		delayed := a.dr && delayedReadBlocked(r, v)
		fresh[i] = open && !delayed && mon.Admissible(requestOp(r))
		if open {
			a.open++
		}
		seen := auditSeen{action: r.Action, entity: r.Entity}
		if delayed {
			seen.blocker = v.LastWriter[r.Entity]
		}
		now[r.TxnID] = seen
		if p, ok := a.prev[r.TxnID]; ok {
			switch {
			case p.action != r.Action || p.entity != r.Entity:
				a.hazards["request changed under one id"]++
			case p.blocker != 0 && v.Finished[p.blocker]:
				a.hazards["commit of a delayed-read blocker"]++
			case p.blocker != 0 && v.LastWriter[r.Entity] != p.blocker:
				a.hazards["retract of a writer"]++
			}
		}
	}
	a.prev = now
	choice := a.gate.Pick(pending, v)
	a.picks++
	a.probes += len(a.memo.stale)
	if !slices.Equal(a.memo.adm, fresh) {
		a.t.Fatalf("tick %d: memoized mask %v, recomputed %v\npending %v\nhazards so far %v",
			a.tick, a.memo.adm, fresh, pending, a.hazards)
	}
	return choice
}

func (a *maskAudit) TxnFinished(id int, v *exec.View) { a.gate.TxnFinished(id, v) }

// Victim and TxnAborted make the audit an exec.Restarter over any gate;
// over the blocking gate it names no victim and the run stalls as it
// would unwrapped.
func (a *maskAudit) Victim(pending []*exec.Request, v *exec.View) int {
	if ra, ok := a.gate.(exec.Restarter); ok {
		return ra.Victim(pending, v)
	}
	return -1
}

func (a *maskAudit) TxnAborted(id int, v *exec.View) {
	a.gate.(exec.Restarter).TxnAborted(id, v)
}

// meddleGate is the audit's hazard injection: between ticks it admits a
// whole foreign writer through AdmitTxn, and plants and later retracts
// an uncommitted one through the certifier Monitor() hands out. Either
// denies the pending write of a transaction that already read the item.
func meddleGate(a *maskAudit, pending []*exec.Request) {
	item := pending[a.tick%len(pending)].Entity
	monitor := func() Certifier {
		if g, ok := a.gate.(*Certify); ok {
			return g.Monitor()
		}
		return a.gate.(interface{ Monitor() Certifier }).Monitor()
	}
	switch {
	case a.tick%5 == 0:
		id := 1_000_000 + a.tick
		if err := a.gate.(exec.BatchGate).AdmitTxn([]txn.Op{txn.W(id, item, 1)}); err != nil {
			a.t.Fatalf("tick %d: AdmitTxn: %v", a.tick, err)
		}
		a.hazards["AdmitTxn interleaved with ticks"]++
	case a.tick%7 == 3 && a.foreign == 0:
		a.foreign = 2_000_000 + a.tick
		monitor().Observe(txn.W(a.foreign, item, 1))
		a.hazards["direct mutation through Monitor()"]++
	case a.tick%7 == 6 && a.foreign != 0:
		monitor().Retract(a.foreign)
		a.foreign = 0
	}
}

// auditGates builds every certification gate over a partition: the
// blocking gate, the optimistic gate under both victim policies, and the
// sharded gate at TestParallelCertifyDifferential's shard counts.
func auditGates(partition []state.ItemSet, seed int64) map[string]exec.Policy {
	gates := map[string]exec.Policy{
		"blocking":              NewCertify(partition, NewRandom(seed)),
		"optimistic-youngest":   NewOptimisticCertify(partition, NewRandom(seed), VictimYoungest),
		"optimistic-fewest-ops": NewOptimisticCertify(partition, NewRandom(seed), VictimFewestOps),
	}
	for _, shards := range []int{1, 2, 8} {
		gates[fmt.Sprintf("parallel-%d", shards)] = NewParallelCertify(partition, shards, NewRandom(seed), nil)
	}
	return gates
}

// TestVerdictMemoMatchesFreshMask is the memo's soundness differential:
// at every Pick of TestGateDecisionIdentityCachedVsUncached's campaign
// and of a hot-tick-shaped one (many short transactions on few
// conjuncts), clean and meddled with, on all three gates, the memoized
// mask equals the mask recomputed afresh. Each hazard a missing
// invalidation would hide behind must have occurred, aborts and solo
// escalation included, and the memo must actually have spared probes.
func TestVerdictMemoMatchesFreshMask(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 8
	}
	type campaign struct {
		name string
		cfg  func(i int) gen.Config
	}
	campaigns := []campaign{
		{"identity", func(i int) gen.Config {
			return gen.Config{Conjuncts: 3, Programs: 4, MovesPerProgram: 2, Style: gen.Style(i % 3), Seed: int64(300 + i)}
		}},
		{"hot", func(i int) gen.Config {
			return gen.Config{Conjuncts: 2 + i%2, Programs: 16, MovesPerProgram: 1 + i%2, Style: gen.Style(i % 3), Seed: int64(900 + i)}
		}},
	}
	hazards := make(map[string]map[string]int) // gate → hazard → count
	aborts := make(map[string]int)
	open, probes := 0, 0
	for _, c := range campaigns {
		for i := 0; i < trials; i++ {
			cfg := c.cfg(i)
			w := gen.MustGenerate(cfg)
			for _, meddled := range []bool{false, true} {
				for name, gate := range auditGates(w.DataSets, cfg.Seed) {
					a := newMaskAudit(t, gate)
					a.memo.mon.SetAutoCompact(3) // passes inside a run, not after it
					if meddled {
						a.meddle = meddleGate
					}
					// A meddled run may stall on what was planted; only the
					// masks along the way are under test.
					res, err := exec.Run(exec.Config{
						Programs: w.Programs, Initial: w.Initial, Policy: a, DataSets: w.DataSets, MaxAborts: 256,
					})
					if err == nil {
						aborts[name] += res.Metrics.Aborts
					}
					if hazards[name] == nil {
						hazards[name] = make(map[string]int)
					}
					for h, n := range a.hazards {
						hazards[name][h] += n
					}
					open += a.open
					probes += a.probes
					if a.picks == 0 {
						t.Fatalf("%s/%s trial %d: no Pick reached the gate", c.name, name, i)
					}
				}
			}
		}
	}
	everywhere := []string{
		"request changed under one id", "compaction between ticks",
		"AdmitTxn interleaved with ticks", "direct mutation through Monitor()",
	}
	abortCapable := []string{"commit of a delayed-read blocker", "retract of a writer", "solo enter/leave"}
	for name, seen := range hazards {
		want := everywhere
		if name != "blocking" {
			want = append(slices.Clone(everywhere), abortCapable...)
			if aborts[name] == 0 {
				t.Errorf("vacuous: %s never aborted", name)
			}
		}
		for _, h := range want {
			if seen[h] == 0 {
				t.Errorf("vacuous: %s never met hazard %q (met: %v)", name, h, seen)
			}
		}
	}
	if probes >= open {
		t.Fatalf("vacuous: %d probes for %d open requests — the memo reused nothing", probes, open)
	}
	t.Logf("%d open requests, %d re-probed (%.2f)", open, probes, float64(probes)/float64(open))
}

// countingCertifier counts Admissible probes per item.
type countingCertifier struct {
	Certifier
	probes map[string]int
}

func (c *countingCertifier) Admissible(o txn.Op) bool {
	c.probes[o.Entity]++
	return c.Certifier.Admissible(o)
}

// TestGrantReprobesOnlyItsConjunct pins the count the memo's gain rests
// on: after a grant in conjunct A, the next tick asks the certifier
// nothing about the requests pending on conjunct B, and conversely.
func TestGrantReprobesOnlyItsConjunct(t *testing.T) {
	partition := []state.ItemSet{state.NewItemSet("a1", "a2"), state.NewItemSet("b1", "b2")}
	mon := &countingCertifier{Certifier: core.NewMonitor(partition), probes: make(map[string]int)}
	gate := NewOptimisticCertifyOver(mon, NewScript(1, 2), nil)
	v := &exec.View{
		Live:       map[int]bool{1: true, 2: true, 3: true},
		Finished:   map[int]bool{},
		LastWriter: map[string]int{},
	}
	req := func(id int, a txn.Action, item string) *exec.Request {
		return &exec.Request{TxnID: id, Action: a, Entity: item, Value: stateInt(1)}
	}
	tick := func(want int, wantProbes map[string]int, pending ...*exec.Request) {
		t.Helper()
		clear(mon.probes)
		if got := gate.Pick(pending, v); got != want {
			t.Fatalf("Pick = %d, want %d", got, want)
		}
		if fmt.Sprint(mon.probes) != fmt.Sprint(wantProbes) {
			t.Fatalf("probes per item = %v, want %v", mon.probes, wantProbes)
		}
	}
	// First sight: every request is decided.
	tick(0, map[string]int{"a1": 1, "b1": 1, "b2": 1},
		req(1, txn.ActionWrite, "a1"), req(2, txn.ActionRead, "b1"), req(3, txn.ActionWrite, "b2"))
	v.LastWriter["a1"] = 1 // the engine applies the grant
	// The grant was in A: only T1's new request is probed, B's verdicts stand.
	tick(1, map[string]int{"a2": 1},
		req(1, txn.ActionWrite, "a2"), req(2, txn.ActionRead, "b1"), req(3, txn.ActionWrite, "b2"))
	// The grant was in B: T2's new request and T3's standing one are
	// re-decided, T1's verdict in A stands. The script is exhausted, so
	// nothing is granted.
	tick(-1, map[string]int{"b2": 2},
		req(1, txn.ActionWrite, "a2"), req(2, txn.ActionRead, "b2"), req(3, txn.ActionWrite, "b2"))
	// Nothing moved: a tick costs no probe at all.
	tick(-1, map[string]int{},
		req(1, txn.ActionWrite, "a2"), req(2, txn.ActionRead, "b2"), req(3, txn.ActionWrite, "b2"))
}

// TestVerdictMemoNewView: the delayed-read half of a verdict reads the
// view's LastWriter and Finished, which belong to one run; a gate driven
// with another view must not reuse what it decided under the first.
func TestVerdictMemoNewView(t *testing.T) {
	gate := NewOptimisticCertify([]state.ItemSet{state.NewItemSet("a")}, &RoundRobin{}, nil)
	pending := []*exec.Request{{TxnID: 1, Action: txn.ActionRead, Entity: "a"}}
	dirty := &exec.View{Live: map[int]bool{1: true, 7: true}, Finished: map[int]bool{}, LastWriter: map[string]int{"a": 7}}
	if got := gate.Pick(pending, dirty); got != -1 {
		t.Fatalf("Pick = %d, want -1: T7's write of a is live", got)
	}
	clean := &exec.View{Live: map[int]bool{1: true}, Finished: map[int]bool{}, LastWriter: map[string]int{}}
	if got := gate.Pick(pending, clean); got != 0 {
		t.Fatalf("Pick = %d under a view without T7's write, want 0", got)
	}
}
