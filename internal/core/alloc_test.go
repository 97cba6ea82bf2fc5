package core_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/exec/exectest"
	"pwsr/internal/gen"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// zeroAllocMonitor builds a warmed-up monitor: a contended multi-item,
// multi-transaction history whose steady state keeps admitting without
// drawing new structural edges, so further Observe/Admissible calls
// exercise the full hot path (dense-id translation, frontier checks,
// reachability searches) with every table already grown.
func zeroAllocMonitor(tb testing.TB) (*core.Monitor, []txn.Op) {
	tb.Helper()
	partition := []state.ItemSet{
		state.NewItemSet("x", "y"),
		state.NewItemSet("u", "v"),
	}
	m := core.NewMonitor(partition)
	// Warm-up: a write epoch per item, then a stable population of
	// readers plus per-transaction private writes.
	warm := []txn.Op{
		txn.W(1, "x", 0), txn.W(1, "y", 0), txn.W(1, "u", 0), txn.W(1, "v", 0),
		txn.R(2, "x", 0), txn.R(3, "x", 0), txn.R(2, "u", 0), txn.R(3, "u", 0),
	}
	for _, o := range warm {
		if v := m.Observe(o); v != nil {
			tb.Fatalf("warm-up violation: %v", v)
		}
	}
	// The steady-state loop: repeat reads by known readers and repeat
	// writes by the items' last writers — admissible forever, no new
	// frontier entries or structural edges after the first pass.
	steady := []txn.Op{
		txn.R(2, "x", 0), txn.R(3, "x", 0),
		txn.W(1, "y", 0), txn.W(1, "v", 0),
		txn.R(2, "u", 0), txn.R(3, "u", 0),
	}
	for _, o := range steady { // pre-run once so caches and logs exist
		if v := m.Observe(o); v != nil {
			tb.Fatalf("steady violation: %v", v)
		}
		if !m.Admissible(o) {
			tb.Fatalf("steady op %v not admissible", o)
		}
	}
	return m, steady
}

// TestZeroAllocObserve pins the steady-state Observe path at 0
// allocs/op: the amortized growth of logs and tables must stay below
// one allocation per thousand operations (testing.AllocsPerRun
// truncates the average, so any systematic per-op allocation fails).
// An alloc regression on the admission hot path fails here — in the
// tier-1 suite and the non-race leg of make check — rather than
// showing up quietly in benchmark output.
func TestZeroAllocObserve(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	m, steady := zeroAllocMonitor(t)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		m.Observe(steady[i%len(steady)])
		i++
	})
	if allocs > 0 {
		t.Fatalf("steady-state Observe allocates %.2f allocs/op, want 0", allocs)
	}
}

// TestZeroAllocAdmissible pins the steady-state Admissible path
// (admitted and denied probes) at 0 allocs/op.
func TestZeroAllocAdmissible(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	m, steady := zeroAllocMonitor(t)
	// Include a denied probe: a write by a fresh conflicting reader
	// would close no cycle here, so craft a genuine denial by giving
	// T2 an edge into T1 first.
	if v := m.Observe(txn.R(2, "y", 0)); v != nil { // T1 wrote y: edge 1 -> 2
		t.Fatal(v)
	}
	denied := txn.W(1, "x", 0) // readers 2,3 on x: edge 2 -> 1 would close 1->2->1
	if m.Admissible(denied) {
		t.Fatal("expected a denied probe in the steady mix")
	}
	probes := append(append([]txn.Op{}, steady...), denied)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		m.Admissible(probes[i%len(probes)])
		i++
	})
	if allocs > 0 {
		t.Fatalf("steady-state Admissible allocates %.2f allocs/op, want 0", allocs)
	}
}

// TestZeroAllocGateTick pins the certification gates' whole per-tick
// probe loop shape at the monitor level: re-probing a pending set
// every tick against an unchanged monitor allocates nothing.
func TestZeroAllocGateTick(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	m, _ := zeroAllocMonitor(t)
	pending := []txn.Op{
		txn.R(2, "x", 0), txn.R(3, "u", 0), txn.W(1, "y", 0), txn.W(1, "x", 0),
	}
	allocs := testing.AllocsPerRun(500, func() {
		for _, o := range pending {
			m.Admissible(o)
		}
	})
	if allocs > 0 {
		t.Fatalf("re-probing a pending set allocates %.2f allocs/tick, want 0", allocs)
	}
}

// TestTickEngineAllocs pins what one granted operation costs the tick
// engine in allocations, the run's set-up and result included: a fixed
// 12-program round under a plain round-robin policy, so neither a
// gate's bookkeeping nor an abort's is in the count. An attempt is a
// program.Machine inside the engine's per-transaction slab, stepped on
// the engine's own stack, and the slab, each Machine's slot array, the
// schedule arena, the lists and the view's maps are recycled across runs,
// so what remains is what the Result owns (the schedule's copy, Final,
// the metrics slab and map) and the run's View: 12 allocations over 106
// granted operations, 0.11. Before the recycling it was 62, 0.58 — the
// run state and one slot array per transaction — and the pull-coroutine
// transport before that took 220, 2.08. The bound leaves room for the
// runtime to change how a map grows, not for a new per-operation,
// per-attempt or per-transaction allocation.
func TestTickEngineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	w := gen.MustGenerate(gen.Config{Conjuncts: 4, Programs: 12, MovesPerProgram: 3, Seed: 1})
	cfg := exec.Config{Programs: w.Programs, Initial: w.Initial, DataSets: w.DataSets}
	ops := 0
	allocs := testing.AllocsPerRun(200, func() {
		cfg.Policy = &sched.RoundRobin{}
		res, err := exec.RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ops = res.Schedule.Len()
	})
	perOp := allocs / float64(ops)
	t.Logf("%.0f allocs over %d granted operations: %.2f allocs/op", allocs, ops, perOp)
	if perOp > 0.2 {
		t.Fatalf("tick engine allocates %.2f allocs per granted operation, want at most 0.2", perOp)
	}
}

// TestBatchEngineAllocs pins what a batch round costs the batch engine
// in allocations once its engine is warm: a constant per batch — the
// metrics slab and map, the schedule, the final state's copy, the
// worker goroutines — and nothing per transaction or per operation.
// Each worker runs every program on one program.Machine, whose slot
// array outlives the run; the workers' operation arenas, the attempt
// slab, the id lists and the committed-operation buffer live with the
// engine; reads are stamped in a slice beside the operations, the
// commit applies the write operations themselves, readers pin the store
// without a StoreSnapshot, and a reader's declaration was judged when
// its program was built; so readers scanning four times as many items
// cost the same allocations. batch-rw's shape: writers on private
// items, so no speculation is lost and every program runs once — 19
// allocations per batch of 96, 0.20 per transaction, at either scan
// width (the parent took 123, 1.28: a slot array per run, the slabs and
// lists per batch). The gated case puts the batch through a Monitor
// with a compaction pass in every batch, as batch-rw does; fresh transactions are admitted on recycled certifier
// state, so the gate may add only the maps' amortized growth. The
// bounds leave room for the runtime to change how a map grows, not for
// an allocation per transaction.
func TestBatchEngineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	const writers, readers, runs = 48, 48, 50
	measure := func(scan int, gated bool) float64 {
		db := state.NewDB()
		partition := make([]state.ItemSet, 4)
		for e := range partition {
			partition[e] = state.NewItemSet()
		}
		writer := make([]*program.Program, writers)
		for i := range writer {
			x := fmt.Sprintf("x%d", i)
			db.Set(x, state.Int(int64(i)))
			partition[i%len(partition)].Add(x)
			writer[i] = program.MustParse(fmt.Sprintf(
				"program W%d {\n  let v := %s;\n  let spin := 10;\n  while (spin > 0) { spin := spin - 1; }\n  %s := v + 1;\n}\n", i, x, x))
		}
		// Readers keep their ids; writers take fresh ascending ids every
		// batch, as a gated engine requires. The batches are built before
		// the measurement: warm-up ones, then one per measured run and
		// AllocsPerRun's own warm-up.
		const warm = 4
		reader := make([]*program.Program, readers)
		ro := make(map[int]bool, readers)
		for j := range reader {
			src := fmt.Sprintf("program R%d {\n", j)
			for k := 0; k < scan; k++ {
				src += fmt.Sprintf("  let v%d := x%d;\n", k, (j+k)%writers)
			}
			reader[j], ro[1+j] = program.MustParse(src+"}\n"), true
		}
		batches := make([]map[int]*program.Program, warm+runs+1)
		for b := range batches {
			batches[b] = make(map[int]*program.Program, writers+readers)
			for j, p := range reader {
				batches[b][1+j] = p
			}
			for i, p := range writer {
				batches[b][readers+1+b*writers+i] = p
			}
		}
		cfg := exec.ParallelConfig{Initial: db, Workers: 2, ReadOnly: ro}
		var mon *core.Monitor
		if gated {
			mon = core.NewMonitor(partition)
			mon.SetAutoCompact(writers)
			cfg.Gate = sched.NewOptimisticCertifyOver(mon, sched.NewRandom(1), sched.VictimYoungest)
		}
		eng := exec.NewParallelEngine(cfg)
		run := func() {
			res, err := eng.ExecuteBatchCtx(context.Background(), batches[0])
			if err != nil {
				t.Fatal(err)
			}
			batches = batches[1:]
			if res.Metrics.Retries != 0 || res.Metrics.ROOps != readers*scan {
				t.Fatalf("scan %d: %d retries, %d reader operations", scan, res.Metrics.Retries, res.Metrics.ROOps)
			}
		}
		for range warm {
			run()
		}
		passes := 0
		if gated {
			passes = mon.CompactStats().Compactions
		}
		allocs := testing.AllocsPerRun(runs, run)
		if gated && mon.CompactStats().Compactions-passes < runs {
			t.Fatalf("gated: %d passes over %d batches, want one per batch", mon.CompactStats().Compactions-passes, runs+1)
		}
		perTxn := allocs / (writers + readers)
		t.Logf("scan %d, gated %v: %.0f allocations per batch of %d transactions, %.2f per transaction", scan, gated, allocs, writers+readers, perTxn)
		return perTxn
	}
	scan8, scan32, gated := measure(8, false), measure(32, false), measure(8, true)
	if scan8 > 0.3 {
		t.Errorf("a batch allocates %.2f times per transaction, want at most 0.3", scan8)
	}
	if scan32 > scan8+0.05 {
		t.Errorf("readers scanning 32 items allocate %.2f per transaction against %.2f at 8: an allocation per operation", scan32, scan8)
	}
	if gated > scan8+0.05 {
		t.Errorf("a gated batch allocates %.2f times per transaction against %.2f ungated: the certifier allocates per transaction", gated, scan8)
	}
}

// restartFirst grants the lowest pending transaction, always, except
// that it stalls whenever the victim holds two granted operations and
// restarts are left: the engine then aborts the victim (the only pending
// transaction by then, or the lowest), resets its Machine and parks it
// again on its first request. With a monitor it certifies as a gate
// does: a grant is observed, an abort retracted.
type restartFirst struct {
	nopGate
	victim, left int
	mon          *core.Monitor
}

// nopGate is the rest of an exec.Gate for a test policy that brings its
// own Pick, TxnFinished, Victim and TxnAborted: embedded, it makes the
// policy a whole Gate that certifies and journals nothing and reports
// zero stats.
type nopGate struct{}

func (nopGate) TxnCanceled(int, *exec.View) {}
func (nopGate) AdmitTxn([]txn.Op) error     { return nil }
func (nopGate) Drain(context.Context) error { return nil }
func (nopGate) CompactWatermark() int       { return 0 }
func (nopGate) Settle() error               { return nil }
func (nopGate) Stats() exec.GateStats       { return exec.GateStats{} }

func (r *restartFirst) Pick(pending []*exec.Request, v *exec.View) int {
	if r.left > 0 && v.OpCount(r.victim) == 2 {
		return -1
	}
	if r.mon != nil {
		q := pending[0]
		r.mon.Observe(txn.Op{Txn: q.TxnID, Action: q.Action, Entity: q.Entity, Value: q.Value})
	}
	return 0
}
func (r *restartFirst) TxnFinished(int, *exec.View)            {}
func (r *restartFirst) Victim([]*exec.Request, *exec.View) int { return 0 }
func (r *restartFirst) TxnAborted(id int, _ *exec.View) {
	if r.mon != nil {
		r.mon.Retract(id)
	}
	r.left--
}

// TestZeroAllocTickRestart pins what a restart costs the engine, the
// interpreter and the certifier in allocations: nothing.
//
//   - interpreter: aborting a victim that holds a cached read, a local, a
//     written mark and a nested control stack, resetting its Machine and
//     parking it again reuses everything the first attempt used. The
//     victim is a hand-built literal program: were it resolved per
//     attempt rather than once per run, each restart would allocate a
//     Clone.
//   - hot item: the victim's write of an item forty finished readers
//     read draws forty edges, past itemEdgeSetThreshold, so the item's
//     contributions live in a map; retracting the victim drops them and
//     refills that map in place, and the next attempt draws them into it
//     again.
//
// Either way a run with 34 restarts allocates exactly what the same run
// with 2 does.
func TestZeroAllocTickRestart(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	victim := program.MustParse(`program V { let t := x; if (t >= 0) { while (t < 1) { y := t + 1; t := t + z; } } z := y; }`)
	const readers = 40
	hot := map[int]*program.Program{readers + 1: program.MustParse(`program V { let t := x; h := t + 1; z := z + 1; }`)}
	for id := 1; id <= readers; id++ {
		hot[id] = program.MustParse(`program R { let a := h; }`)
	}
	for _, c := range []struct {
		name   string
		cfg    exec.Config
		victim int
		ops    int // the schedule's length: what survives of every attempt
		mon    func() *core.Monitor
	}{
		{
			name: "interpreter",
			cfg: exec.Config{
				Programs: map[int]*program.Program{
					1: {Name: "V", Body: victim.Body},
					2: program.MustParse(`program B { u := u + 1; }`),
					3: program.MustParse(`program C { w := w + u; }`),
				},
				Initial: state.Ints(map[string]int64{"x": 0, "y": 0, "z": 1, "u": 0, "w": 0}),
			},
			// r1(x) w1(y) — erased on every restart — then r1(z) w1(z).
			victim: 1, ops: 9,
		},
		{
			name:   "hot item",
			cfg:    exec.Config{Programs: hot, Initial: state.Ints(map[string]int64{"h": 0, "x": 0, "z": 0})},
			victim: readers + 1, ops: readers + 4,
			mon: func() *core.Monitor { return core.NewMonitor([]state.ItemSet{state.NewItemSet("h", "x", "z")}) },
		},
	} {
		run := func(restarts int) float64 {
			return testing.AllocsPerRun(50, func() {
				pol := &restartFirst{victim: c.victim, left: restarts}
				if c.mon != nil {
					pol.mon = c.mon()
				}
				c.cfg.Policy = pol
				res, err := exec.RunCtx(context.Background(), c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if m := res.Metrics; m.Aborts != restarts || m.WastedOps != 2*restarts || res.Schedule.Len() != c.ops {
					t.Fatalf("%s: %d restarts asked for: %d aborts, %d wasted operations, schedule %s", c.name, restarts, m.Aborts, m.WastedOps, res.Schedule)
				}
			})
		}
		few, many := run(2), run(34)
		t.Logf("%s: %.0f allocations with 2 restarts, %.0f with 34", c.name, few, many)
		if many != few {
			t.Errorf("%s: 32 more restarts allocate %.0f more times, want 0", c.name, many-few)
		}
	}
}

// discardAccessor answers every read with a constant and drops writes.
type discardAccessor struct{}

func (discardAccessor) Read(string) (state.Value, error) { return state.Int(7), nil }
func (discardAccessor) Write(string, state.Value) error  { return nil }

// TestInterpRunAllocs pins what an attempt pays the interpreter in
// allocations: its whole run-time state — locals, cached reads, written
// marks — is one frame, so one allocation per Run whatever the program's
// vocabulary, and nothing per executed statement (the spin loop runs a
// thousand statements for the same one allocation as ten).
func TestInterpRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	writer := func(spin int) string {
		return fmt.Sprintf("program W {\n  let v := x1;\n  let spin := %d;\n  while (spin > 0) { spin := spin - 1; }\n  x1 := v + 1;\n  h := h + 1;\n}\n", spin)
	}
	reader, fix := "program R {\n  let a := h;\n", "program Long {\n"
	for i := 0; i < 8; i++ {
		reader += fmt.Sprintf("  let v%d := x%d;\n", i, 97*i)
	}
	for i := 0; i < 16; i++ {
		fix += fmt.Sprintf("  d%dc%d := abs(d%dc%d) %% 89 + %d;\n", i/4, i%4, i/4, i%4, 1+i%3)
	}
	in := program.NewInterp()
	for name, src := range map[string]string{
		"writer, spin 10": writer(10), "writer, spin 1000": writer(1000),
		"reader, scan 8": reader + "}\n", "tick program, 16 fixes": fix + "}\n",
	} {
		p := program.MustParse(src)
		allocs := testing.AllocsPerRun(200, func() {
			if err := in.Run(p, discardAccessor{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%s: Run allocates %.1f times, want at most once (the frame)", name, allocs)
		}
	}
}

// passPolicy burns every tick, so a gate above it decides the pending
// set and grants nothing.
type passPolicy struct{}

func (passPolicy) Pick([]*exec.Request, *exec.View) int { return exec.PassTick }
func (passPolicy) TxnFinished(int, *exec.View)          {}

// countingMonitor is a certifier that counts the gate's AdmissibleItem
// probes.
type countingMonitor struct {
	*core.Monitor
	admissible int
}

func (c *countingMonitor) AdmissibleItem(txnID int, a txn.Action, item int32) bool {
	c.admissible++
	return c.Monitor.AdmissibleItem(txnID, a, item)
}

// TestZeroAllocGatePick is TestZeroAllocGateTick one layer up: a real
// gate re-deciding an unchanged pending set every tick allocates
// nothing, and — its verdict memo standing — asks the monitor nothing
// after the first tick.
func TestZeroAllocGatePick(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	mon, _ := zeroAllocMonitor(t)
	m := &countingMonitor{Monitor: mon}
	gate := sched.NewOptimisticCertifyOver(m, passPolicy{}, nil)
	pending := []*exec.Request{
		{TxnID: 1, Slot: 0, Action: txn.ActionWrite, Entity: "y"},
		{TxnID: 2, Slot: 1, Action: txn.ActionRead, Entity: "x"}, // delayed: T1 wrote x and is live
		{TxnID: 3, Slot: 2, Action: txn.ActionWrite, Entity: "u"},
	}
	v := exectest.View(map[int]bool{1: true, 2: true, 3: true}, map[int]bool{},
		map[string]int{"x": 1, "y": 1, "u": 1, "v": 1}, pending...)
	gate.Pick(pending, v)
	first := m.admissible
	if first == 0 {
		t.Fatal("vacuous: the first tick probed nothing")
	}
	allocs := testing.AllocsPerRun(500, func() { gate.Pick(pending, v) })
	if allocs > 0 {
		t.Fatalf("re-deciding a pending set allocates %.2f allocs/tick, want 0", allocs)
	}
	if m.admissible != first {
		t.Fatalf("an unchanged pending set re-probed the monitor: %d Admissible calls after the first tick's %d", m.admissible-first, first)
	}
}

// TestZeroAllocDelayedReadPick pins the delayed-read gate's tick at 0
// allocs/op: its candidate buffers are reused scratch.
func TestZeroAllocDelayedReadPick(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	gate := &sched.DelayedRead{Inner: &sched.RoundRobin{}}
	pending := []*exec.Request{
		{TxnID: 1, Action: txn.ActionWrite, Entity: "y"},
		{TxnID: 2, Action: txn.ActionRead, Entity: "x"}, // delayed
		{TxnID: 3, Action: txn.ActionRead, Entity: "u"},
	}
	v := exectest.View(nil, map[int]bool{}, map[string]int{"x": 1}, pending...)
	allocs := testing.AllocsPerRun(500, func() {
		if i := gate.Pick(pending, v); i != 0 && i != 2 {
			t.Fatalf("Pick = %d, want an undelayed request", i)
		}
	})
	if allocs > 0 {
		t.Fatalf("DelayedRead.Pick allocates %.2f allocs/tick, want 0", allocs)
	}
}

// victimAllocs measures what the gate's Victim allocates at every stall
// of a real run (Victim changes nothing, so repeating the call is
// harmless).
type victimAllocs struct {
	*sched.OptimisticCertify
	calls int
	worst float64
}

func (p *victimAllocs) Victim(pending []*exec.Request, v *exec.View) int {
	p.calls++
	if a := testing.AllocsPerRun(10, func() { p.OptimisticCertify.Victim(pending, v) }); a > p.worst {
		p.worst = a
	}
	return p.OptimisticCertify.Victim(pending, v)
}

// TestZeroAllocVictim pins victim selection at 0 allocs/op under both
// victim policies: the candidate list is gate scratch and the policies
// read the engine's per-transaction op index instead of building maps
// over the schedule.
func TestZeroAllocVictim(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	w := gen.MustGenerate(gen.Config{Conjuncts: 2, Programs: 12, MovesPerProgram: 2, Seed: 3})
	for name, policy := range map[string]sched.VictimPolicy{"youngest": sched.VictimYoungest, "fewest-ops": sched.VictimFewestOps} {
		p := &victimAllocs{OptimisticCertify: sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(1), policy)}
		if _, err := exec.RunCtx(context.Background(), exec.Config{Programs: w.Programs, Initial: w.Initial, Policy: p, DataSets: w.DataSets}); err != nil {
			t.Fatal(err)
		}
		if p.calls == 0 {
			t.Fatalf("%s: vacuous, the run never stalled", name)
		}
		if p.worst > 0 {
			t.Fatalf("%s: Victim allocates %.2f allocs/call over %d stalls, want 0", name, p.worst, p.calls)
		}
	}
}

// TestZeroAllocFreshAdmission pins whole-transaction admission at its
// steady state: AdmitSequence + Commit of fresh transactions, with the
// compaction passes their commits trigger inside the measured window,
// allocates at most one object per four transactions. A pass keeps every table's capacity
// and hands what it reclaims to the next fresh transactions — node
// slots with their lists, conjunct lists, interner and table entries —
// and the items touched since the last pass keep their lists. What is
// left, 0.03 per transaction, is the hot item's log, which outgrows
// listMin within an interval and is let go by the pass that empties
// it, and the maps' amortized growth. Each transaction
// read-modify-writes one of 32 items, every fourth also the hot item of
// a conjunct of its own (a second graph).
func TestZeroAllocFreshAdmission(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	const conjuncts, items, every, txns = 4, 32, 64, 8192
	partition := make([]state.ItemSet, conjuncts, conjuncts+1)
	for e := range partition {
		partition[e] = state.NewItemSet()
	}
	names := make([]string, items)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
		partition[i%conjuncts].Add(names[i])
	}
	partition = append(partition, state.NewItemSet("h"))

	m := core.NewMonitor(partition)
	m.SetAutoCompact(every)
	id := 0
	buf := make([]txn.Op, 0, 4)
	admit := func() {
		id++
		x := names[id%items]
		seq := append(buf[:0], txn.R(id, x, 0), txn.W(id, x, 1))
		if id%4 == 0 {
			seq = append(seq, txn.R(id, "h", 0), txn.W(id, "h", 1))
		}
		if ok, v := m.AdmitSequence(seq); !ok || v != nil {
			t.Fatalf("T%d: ok=%v, violation %v", id, ok, v)
		}
		m.Commit(id)
	}
	for range 4 * every {
		admit()
	}
	passes := m.CompactStats().Compactions
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range txns {
		admit()
	}
	runtime.ReadMemStats(&after)
	passes = m.CompactStats().Compactions - passes
	perTxn := float64(after.Mallocs-before.Mallocs) / txns
	t.Logf("%.4f allocations per transaction over %d transactions and %d passes", perTxn, txns, passes)
	if passes < txns/every {
		t.Fatalf("%d passes over %d transactions, want %d", passes, txns, txns/every)
	}
	if perTxn > 0.25 {
		t.Errorf("steady-state admission allocates %.4f times per transaction, want at most 0.25", perTxn)
	}
}

// TestZeroAllocAdmitLiveSetIndependent pins the cost shape of
// whole-transaction admission: AdmitSequence + Commit of a fresh
// transaction allocates the same number of objects and the same number
// of bytes with 16 resident transactions as with 4096 — what a
// transaction pays does not depend on the transactions beside it —
// whether its footprint spans one conjunct or two. Each resident is a
// live uncommitted reader in a private conjunct, so it sits in the
// transaction tables and in a conjunct's graph. Bytes are compared as
// the most frequent per-call figure, which drops the calls on which an
// amortized table grew (those depend on the table's size, not on the
// admission).
func TestZeroAllocAdmitLiveSetIndependent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	const conjuncts, small, large, runs = 8, 16, 4096, 256
	const pool = 2*runs + 1 // one private item per measured call
	partition := make([]state.ItemSet, conjuncts, conjuncts+1)
	for e := range partition {
		partition[e] = state.NewItemSet(fmt.Sprintf("p%d", e))
	}
	for i := 0; i < pool; i++ {
		partition[0].Add(fmt.Sprintf("x%d", i))
	}
	partition = append(partition, state.NewItemSet("h")) // a second conjunct

	// measure returns allocs and bytes per AdmitSequence+Commit of a
	// read-modify-write of one private item, with or without one of the
	// hot item. A first round over the pool gives every private item the
	// same history, so every measured call does the same work.
	measure := func(m *core.Monitor, resident int, hot bool) (allocs float64, bytes uint64) {
		m.SetAutoCompact(0)
		for k := 0; k < resident; k++ {
			if ok, v := m.AdmitSequence([]txn.Op{txn.R(1+k, fmt.Sprintf("p%d", k%conjuncts), 0)}); !ok || v != nil {
				t.Fatalf("resident T%d: ok=%v, violation %v", 1+k, ok, v)
			}
		}
		i := 0
		buf := make([]txn.Op, 4)
		admit := func() {
			id, x := large+1+i, fmt.Sprintf("x%d", i%pool)
			i++
			seq := append(buf[:0], txn.R(id, x, 0), txn.W(id, x, 1))
			if hot {
				seq = append(seq, txn.R(id, "h", 0), txn.W(id, "h", 1))
			}
			if ok, v := m.AdmitSequence(seq); !ok || v != nil {
				t.Fatalf("T%d: ok=%v, violation %v", id, ok, v)
			}
			m.Commit(id)
		}
		for i < pool {
			admit()
		}
		allocs = testing.AllocsPerRun(runs, admit)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		count := make(map[uint64]int)
		var before, after runtime.MemStats
		for r := 0; r < runs; r++ {
			runtime.ReadMemStats(&before)
			admit()
			runtime.ReadMemStats(&after)
			count[after.TotalAlloc-before.TotalAlloc]++
		}
		for b, n := range count {
			if n > count[bytes] {
				bytes = b
			}
		}
		if count[bytes] < runs/2 {
			t.Fatalf("no steady per-call byte count: %v", count)
		}
		return allocs, bytes
	}

	for footprint := 1; footprint <= 2; footprint++ {
		hot := footprint == 2
		a16, b16 := measure(core.NewMonitor(partition), small, hot)
		a4k, b4k := measure(core.NewMonitor(partition), large, hot)
		t.Logf("footprint=%d: %v allocs/%d B per admission", footprint, a4k, b4k)
		if a16 != a4k || b16 != b4k {
			t.Errorf("footprint=%d: %v allocs/%d B per admission with %d residents, %v allocs/%d B with %d",
				footprint, a16, b16, small, a4k, b4k, large)
		}
	}
}
