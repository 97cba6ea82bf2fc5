package sched

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/fault"
	"pwsr/internal/gen"
	"pwsr/internal/program"
	"pwsr/internal/state"
	"pwsr/internal/txn"
	"pwsr/internal/wal"
)

// maskAudit wraps the certification gate and, at every Pick, recomputes
// the admissibility mask from scratch — posture, solo, delayed-read
// rule and a fresh Admissible probe per request, the expression the
// gate evaluated every tick before it carried verdicts — and
// requires the gate's memoized mask to equal it. The memo has no off
// switch to run a twin against, so the reference is rebuilt here, on a
// probe-only path that commits nothing. It also counts the situations
// that would expose a missing invalidation, so a campaign that never
// met them fails as vacuous.
type maskAudit struct {
	*OptimisticCertify
	t   *testing.T
	mon *countingCertifier // the gate's certifier, counting its probes

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

func newMaskAudit(t *testing.T, gate *OptimisticCertify) *maskAudit {
	a := &maskAudit{OptimisticCertify: gate, t: t, hazards: make(map[string]int)}
	a.mon = &countingCertifier{Certifier: gate.memo.mon}
	gate.memo.mon = a.mon
	return a
}

func (a *maskAudit) Pick(pending []*exec.Request, v *exec.View) int {
	a.tick++
	if a.meddle != nil {
		a.meddle(a, pending)
	}
	mon := a.mon.Certifier
	solo := a.solo
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
		delayed := delayedReadBlocked(r, v)
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
	calls := a.mon.calls
	choice := a.OptimisticCertify.Pick(pending, v)
	a.picks++
	a.probes += a.mon.calls - calls
	if !slices.Equal(a.memo.adm, fresh) {
		a.t.Fatalf("tick %d: memoized mask %v, recomputed %v\npending %v\nhazards so far %v",
			a.tick, a.memo.adm, fresh, pending, a.hazards)
	}
	return choice
}

// meddleGate is the audit's hazard injection: between ticks it admits a
// whole foreign writer through AdmitTxn, and plants and later retracts
// an uncommitted one through the certifier Monitor() hands out (the
// audit's counting wrapper). Either denies the pending write of a
// transaction that already read the item.
func meddleGate(a *maskAudit, pending []*exec.Request) {
	item := pending[a.tick%len(pending)].Entity
	switch {
	case a.tick%5 == 0:
		id := 1_000_000 + a.tick
		if err := a.AdmitTxn([]txn.Op{txn.W(id, item, 1)}); err != nil {
			a.t.Fatalf("tick %d: AdmitTxn: %v", a.tick, err)
		}
		a.hazards["AdmitTxn interleaved with ticks"]++
	case a.tick%7 == 3 && a.foreign == 0:
		a.foreign = 2_000_000 + a.tick
		a.Monitor().Observe(txn.W(a.foreign, item, 1))
		a.hazards["direct mutation through Monitor()"]++
	case a.tick%7 == 6 && a.foreign != 0:
		a.Monitor().Retract(a.foreign)
		a.foreign = 0
	}
}

// auditGates builds the certification gate over a partition under both
// victim policies.
func auditGates(partition []state.ItemSet, seed int64) map[string]*OptimisticCertify {
	return map[string]*OptimisticCertify{
		"youngest":   NewOptimisticCertify(partition, NewRandom(seed), VictimYoungest),
		"fewest-ops": NewOptimisticCertify(partition, NewRandom(seed), VictimFewestOps),
	}
}

// TestVerdictMemoMatchesFreshMask is the memo's soundness differential:
// at every Pick of a PERF5-style seeded campaign (four programs over
// three conjuncts) and of a hot-tick-shaped one (many short transactions
// on few conjuncts), clean and meddled with, under both victim policies,
// the memoized mask equals the mask recomputed afresh. Each hazard a missing
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
					res, err := exec.RunCtx(context.Background(), exec.Config{
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
	want := []string{
		"request changed under one id", "compaction between ticks",
		"AdmitTxn interleaved with ticks", "direct mutation through Monitor()",
		"commit of a delayed-read blocker", "retract of a writer", "solo enter/leave",
	}
	for name, seen := range hazards {
		if aborts[name] == 0 {
			t.Errorf("vacuous: %s never aborted", name)
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

// slotRewrite hands the audited gate every pending request with its Slot
// rewritten by slot (of the request's index and the list's length).
type slotRewrite struct {
	*maskAudit
	slot func(i, n int) int
}

func (w *slotRewrite) rewrite(pending []*exec.Request) {
	for i, r := range pending {
		r.Slot = w.slot(i, len(pending))
	}
}

func (w *slotRewrite) Pick(pending []*exec.Request, v *exec.View) int {
	w.rewrite(pending)
	return w.maskAudit.Pick(pending, v)
}

func (w *slotRewrite) Victim(pending []*exec.Request, v *exec.View) int {
	w.rewrite(pending)
	return w.maskAudit.Victim(pending, v)
}

// TestVerdictMemoSlotIsOnlyACacheIndex: the slot keys the memo's table
// but decides nothing. Hot-tick-shaped runs (many short transactions on
// few conjuncts, aborts and solo included) with every slot rewritten to
// 0 — every request shares one table entry — and to the reverse of its
// pending position — a transaction's slot moves from tick to tick — keep
// the memoized mask equal to the fresh one at every tick and grant the
// schedule the engine's own slots grant.
func TestVerdictMemoSlotIsOnlyACacheIndex(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	legs := []struct {
		name string
		slot func(i, n int) int
	}{
		{"zero", func(i, n int) int { return 0 }},
		{"reversed", func(i, n int) int { return n - 1 - i }},
	}
	aborts := 0
	for i := 0; i < trials; i++ {
		cfg := gen.Config{Conjuncts: 3, Programs: 24, MovesPerProgram: 1 + i%2, Style: gen.Style(i % 3), Seed: int64(700 + i)}
		w := gen.MustGenerate(cfg)
		run := func(p exec.Policy) string {
			res, err := exec.RunCtx(context.Background(), exec.Config{
				Programs: w.Programs, Initial: w.Initial, Policy: p, DataSets: w.DataSets, MaxAborts: 4096,
			})
			if err != nil {
				t.Fatalf("trial %d: %v", i, err)
			}
			aborts += res.Metrics.Aborts
			return res.Schedule.String()
		}
		audited := func() *maskAudit {
			a := newMaskAudit(t, NewOptimisticCertify(w.DataSets, NewRandom(cfg.Seed), VictimYoungest))
			a.mon.SetAutoCompact(3)
			return a
		}
		want := run(audited())
		for _, leg := range legs {
			if got := run(&slotRewrite{maskAudit: audited(), slot: leg.slot}); got != want {
				t.Fatalf("trial %d, %s slots: schedule\n%s\nwant the engine slots' schedule\n%s", i, leg.name, got, want)
			}
		}
	}
	if aborts == 0 {
		t.Fatal("vacuous: no run aborted")
	}
}

// countingCertifier counts Admissible probes, and per item when probes
// is set.
type countingCertifier struct {
	Certifier
	calls  int
	probes map[string]int
}

func (c *countingCertifier) Admissible(o txn.Op) bool {
	c.calls++
	if c.probes != nil {
		c.probes[o.Entity]++
	}
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
		return &exec.Request{TxnID: id, Slot: id - 1, Action: a, Entity: item, Value: stateInt(1)}
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

// TestVerdictMemoOutsideItemsBounded: the memo's item table holds the
// partition's items and nothing else — every item outside the partition
// shares one epoch counter — so a gate fed a stream of fresh item names
// outside every conjunct does not grow it.
func TestVerdictMemoOutsideItemsBounded(t *testing.T) {
	partition := []state.ItemSet{state.NewItemSet("a1", "a2"), state.NewItemSet("a2", "b1")}
	gate := NewOptimisticCertify(partition, &RoundRobin{}, nil)
	v := &exec.View{Live: map[int]bool{}, Finished: map[int]bool{}, LastWriter: map[string]int{}}
	const fresh = 1000
	for i := 1; i <= fresh; i++ {
		v.Live[i] = true
		pending := []*exec.Request{{TxnID: i, Action: txn.ActionRead, Entity: fmt.Sprintf("o%d", i)}}
		if got := gate.Pick(pending, v); got != 0 {
			t.Fatalf("Pick = %d for a read outside every conjunct, want 0", got)
		}
	}
	if got := len(gate.memo.epochs); got != 3 {
		t.Fatalf("item table holds %d entries after %d fresh outside items, want the partition's 3", got, fresh)
	}
	if got := gate.memo.epochsOf("a2"); !slices.Equal(got, []int32{0, 1}) {
		t.Fatalf("epochs of a2 = %v, want both conjuncts [0 1]", got)
	}
	if a, b := gate.memo.epochsOf("o1"), gate.memo.epochsOf("o2"); &a[0] != &b[0] || a[0] != 2 {
		t.Fatalf("outside items use epochs %v and %v, want one shared slice of the outside counter 2", a, b)
	}
}

// soloAtCancel records the gate's solo transaction when the first
// TxnCanceled reaches it, before the gate settles anything.
type soloAtCancel struct {
	*OptimisticCertify
	solo, cancels int
}

func (s *soloAtCancel) TxnCanceled(id int, v *exec.View) {
	if s.cancels++; s.cancels == 1 {
		s.solo = s.OptimisticCertify.solo
	}
	s.OptimisticCertify.TxnCanceled(id, v)
}

// TestOptimisticForgetsFailedRun: a program error ends a run, here
// while T2 is solo. The engine settles the failed run's live attempts
// through TxnCanceled, so the certifier (and the journal, whose resumed
// monitor is checked too) holds none of them in flight; and the next
// run's view must drop whatever else the failed run left — its abort
// counts, phase marks and touched lists — or the gate opens nothing
// for the new transactions and the run burns its abort budget. A stall
// (an exhausted abort budget) and a journal outage end a run through
// the same epilogue and must settle its attempts the same way.
func TestOptimisticForgetsFailedRun(t *testing.T) {
	partition := []state.ItemSet{state.NewItemSet("a", "b")}
	for _, journaled := range []bool{false, true} {
		name := fmt.Sprintf("journaled=%v", journaled)
		gate := NewOptimisticCertify(partition, &RoundRobin{}, nil)
		gate.soloThreshold = 1
		b, opts := wal.NewMemBackend(), wal.Options{GroupEvery: 1}
		if journaled {
			w, err := wal.NewWriter(b, opts)
			if err != nil {
				t.Fatal(err)
			}
			gate.AttachJournal(w)
		}
		initial := state.NewDB()
		initial.Set("a", stateInt(0))
		initial.Set("b", stateInt(0))
		rec := &soloAtCancel{OptimisticCertify: gate}
		_, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: map[int]*program.Program{
				1: program.MustParse(`program P1 { a := b + 1; }`),
				2: program.MustParse(`program P2 { b := a + 1; q := 1 / 0; }`),
			},
			Initial: initial, Policy: rec, DataSets: partition,
		})
		if err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("%s: run 1: err = %v, want the division by zero", name, err)
		}
		if live := gate.Monitor().InFlightTxnIDs(); len(live) != 0 {
			t.Fatalf("%s: the failed run left %v in flight in the certifier", name, live)
		}
		if rec.solo != 2 {
			t.Fatalf("%s: vacuous: run 1 failed with solo = %d, want T2 solo", name, rec.solo)
		}
		if journaled {
			mon, _, _, err := wal.Resume(b, partition, opts)
			if err != nil {
				t.Fatalf("%s: resume: %v", name, err)
			}
			if live := mon.InFlightTxnIDs(); len(live) != 0 {
				t.Fatalf("%s: the journal recovers the failed run's %v in flight", name, live)
			}
		}
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: map[int]*program.Program{
				3: program.MustParse(`program P3 { a := a + 1; }`),
				4: program.MustParse(`program P4 { b := b + 1; }`),
			},
			Initial: initial, Policy: gate, DataSets: partition, MaxAborts: 50,
		})
		if err != nil {
			t.Fatalf("%s: run 2 after the failed run: %v", name, err)
		}
		if got := len(res.Schedule.Ops()); got != 4 {
			t.Fatalf("%s: run 2 granted %d operations, want 4:\n%s", name, got, res.Schedule)
		}
		if gate.solo != 0 || len(gate.aborts) != 0 || len(gate.phase) != 0 || len(gate.memo.touched) != 0 {
			t.Fatalf("%s: run 2 left solo %d, aborts %v, phase %v, touched %v", name, gate.solo, gate.aborts, gate.phase, gate.memo.touched)
		}
	}

	for _, leg := range []struct {
		name      string
		inner     exec.Policy
		programs  map[int]*program.Program
		maxAborts int
		failWrite int64 // the journal's first failing backend write (0 = none)
		want      error
	}{
		{"stall", &RoundRobin{}, map[int]*program.Program{
			1: program.MustParse(`program P1 { t := a; u := b; b := t + 1; }`),
			2: program.MustParse(`program P2 { t := b; u := a; a := t + 1; }`),
			3: program.MustParse(`program P3 { t := a; u := b; a := u + 1; }`),
		}, 1, 0, exec.ErrStall},
		{"journal down", &Serial{}, map[int]*program.Program{
			1: program.MustParse(`program P1 { t := a; b := t + 1; }`),
			2: program.MustParse(`program P2 { t := b; a := t + 1; }`),
		}, 0, 5, exec.ErrJournalDown}, // write 5 is T2's first grant, after T1's commit and compaction
	} {
		mem := wal.NewMemBackend()
		var b wal.Backend = mem
		if leg.failWrite > 0 {
			inj := fault.NewInjector(fault.Plan{Rules: []fault.Rule{{Op: fault.OpWrite, From: leg.failWrite, Kind: fault.KindError}}})
			b = wal.NewInjectBackend(mem, inj, "wal")
		}
		opts := wal.Options{GroupEvery: 1, MaxRetries: -1}
		w, err := wal.NewWriter(b, opts)
		if err != nil {
			t.Fatal(err)
		}
		gate := NewOptimisticCertify(partition, leg.inner, nil)
		gate.AttachJournal(w)
		rec := &soloAtCancel{OptimisticCertify: gate}
		_, err = exec.RunCtx(context.Background(), exec.Config{
			Programs: leg.programs, Initial: state.Ints(map[string]int64{"a": 0, "b": 0}),
			Policy: rec, DataSets: partition, MaxAborts: leg.maxAborts,
		})
		if !errors.Is(err, leg.want) {
			t.Fatalf("%s: err = %v, want %v", leg.name, err, leg.want)
		}
		if live := gate.Monitor().InFlightTxnIDs(); len(live) != 0 {
			t.Fatalf("%s: the failed run left %v in flight in the certifier", leg.name, live)
		}
		if rec.cancels == 0 {
			t.Fatalf("%s: vacuous: the run ended with no attempt live", leg.name)
		}
		mon, _, _, err := wal.Resume(mem, partition, opts)
		if err != nil {
			t.Fatalf("%s: resume: %v", leg.name, err)
		}
		if live := mon.InFlightTxnIDs(); len(live) != 0 {
			t.Fatalf("%s: the journal recovers the failed run's %v in flight", leg.name, live)
		}
	}
}
