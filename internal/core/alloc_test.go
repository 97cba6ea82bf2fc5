package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/exec"
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
// probe cache) with every table already grown.
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
// (probe-cache hits and revalidations) at 0 allocs/op.
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
	st := m.ProbeStats()
	if st.Hits == 0 {
		t.Fatal("steady-state probes never hit the cache")
	}
}

// TestZeroAllocGateTick pins the certification gates' whole per-tick
// probe loop shape at the monitor level: a pending set re-probed every
// tick against an unchanged monitor must be pure cache hits.
func TestZeroAllocGateTick(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	m, _ := zeroAllocMonitor(t)
	pending := []txn.Op{
		txn.R(2, "x", 0), txn.R(3, "u", 0), txn.W(1, "y", 0), txn.W(1, "x", 0),
	}
	before := m.ProbeStats()
	allocs := testing.AllocsPerRun(500, func() {
		for _, o := range pending {
			m.Admissible(o)
		}
	})
	if allocs > 0 {
		t.Fatalf("re-probing a pending set allocates %.2f allocs/tick, want 0", allocs)
	}
	after := m.ProbeStats()
	if after.Hits <= before.Hits {
		t.Fatal("re-probes did not hit the cache")
	}
}

// TestTickEngineAllocs pins what one granted operation costs the tick
// engine in allocations, the run's set-up and result included: a fixed
// 12-program round under a plain round-robin policy, so neither a
// gate's bookkeeping nor an abort's is in the count. An attempt is a
// program.Machine inside the engine's per-transaction slab, stepped on
// the engine's own stack, so what remains is per run (the view's maps,
// the slabs, the schedule, which the result adopts without a copy) and
// one slot array per transaction: 62 allocations over 106 granted
// operations, 0.58. The pull-coroutine transport this replaced took 220,
// 2.08 — thirteen per attempt for the coroutine and its frame. The bound
// leaves room for the runtime to change how a map grows, not for a new
// per-operation or per-attempt allocation.
func TestTickEngineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	w := gen.MustGenerate(gen.Config{Conjuncts: 4, Programs: 12, MovesPerProgram: 3, Seed: 1})
	cfg := exec.Config{Programs: w.Programs, Initial: w.Initial, DataSets: w.DataSets}
	ops := 0
	allocs := testing.AllocsPerRun(200, func() {
		cfg.Policy = &sched.RoundRobin{}
		res, err := exec.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ops = res.Schedule.Len()
	})
	perOp := allocs / float64(ops)
	t.Logf("%.0f allocs over %d granted operations: %.2f allocs/op", allocs, ops, perOp)
	if perOp > 0.8 {
		t.Fatalf("tick engine allocates %.2f allocs per granted operation, want at most 0.8", perOp)
	}
}

// restartFirst grants the lowest pending transaction, always, except
// that it stalls whenever transaction 1 holds two granted operations and
// restarts are left: the engine then aborts transaction 1, resets its
// Machine and parks it again on its first request.
type restartFirst struct{ left int }

func (r *restartFirst) Pick(_ []*exec.Request, v *exec.View) int {
	if r.left > 0 && v.OpCount(1) == 2 {
		return -1
	}
	return 0
}
func (r *restartFirst) TxnFinished(int, *exec.View)            {}
func (r *restartFirst) Victim([]*exec.Request, *exec.View) int { return 0 }
func (r *restartFirst) TxnAborted(int, *exec.View)             { r.left-- }

// TestZeroAllocTickRestart pins what a restart costs the engine and the
// interpreter in allocations: nothing. Aborting a victim that holds a
// cached read, a local, a written mark and a nested control stack,
// resetting its Machine and parking it again reuses everything the first
// attempt used, so a run with 34 restarts allocates exactly what the same
// run with 2 does (the first restart grows the engine's undo scratch; it
// is in both). The victim is a hand-built literal program: were it
// resolved per attempt rather than once per run, each restart would
// allocate a Clone.
func TestZeroAllocTickRestart(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	victim := program.MustParse(`program V { let t := x; if (t >= 0) { while (t < 1) { y := t + 1; t := t + z; } } z := y; }`)
	cfg := exec.Config{
		Programs: map[int]*program.Program{
			1: {Name: "V", Body: victim.Body},
			2: program.MustParse(`program B { u := u + 1; }`),
			3: program.MustParse(`program C { w := w + u; }`),
		},
		Initial: state.Ints(map[string]int64{"x": 0, "y": 0, "z": 1, "u": 0, "w": 0}),
	}
	run := func(restarts int) float64 {
		return testing.AllocsPerRun(50, func() {
			cfg.Policy = &restartFirst{left: restarts}
			res, err := exec.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// r1(x) w1(y) — erased on every restart — then r1(z) w1(z).
			if m := res.Metrics; m.Aborts != restarts || m.WastedOps != 2*restarts || res.Schedule.Len() != 9 {
				t.Fatalf("%d restarts asked for: %d aborts, %d wasted operations, schedule %s", restarts, m.Aborts, m.WastedOps, res.Schedule)
			}
		})
	}
	few, many := run(2), run(34)
	t.Logf("%.0f allocations with 2 restarts, %.0f with 34", few, many)
	if many != few {
		t.Fatalf("32 more restarts allocate %.0f more times, want 0", many-few)
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

// TestZeroAllocGatePick is TestZeroAllocGateTick one layer up: a real
// gate re-deciding an unchanged pending set every tick allocates
// nothing, and — its verdict memo standing — asks the monitor nothing
// after the first tick.
func TestZeroAllocGatePick(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	m, _ := zeroAllocMonitor(t)
	gate := sched.NewOptimisticCertifyOver(m, passPolicy{}, nil)
	v := &exec.View{
		Live:       map[int]bool{1: true, 2: true, 3: true},
		Finished:   map[int]bool{},
		LastWriter: map[string]int{"x": 1, "y": 1, "u": 1, "v": 1},
	}
	pending := []*exec.Request{
		{TxnID: 1, Action: txn.ActionWrite, Entity: "y"},
		{TxnID: 2, Action: txn.ActionRead, Entity: "x"}, // delayed: T1 wrote x and is live
		{TxnID: 3, Action: txn.ActionWrite, Entity: "u"},
	}
	gate.Pick(pending, v)
	before := m.ProbeStats()
	allocs := testing.AllocsPerRun(500, func() { gate.Pick(pending, v) })
	if allocs > 0 {
		t.Fatalf("re-deciding a pending set allocates %.2f allocs/tick, want 0", allocs)
	}
	if after := m.ProbeStats(); after != before {
		t.Fatalf("an unchanged pending set re-probed the monitor: %+v -> %+v", before, after)
	}
}

// TestZeroAllocDelayedReadPick pins the delayed-read gate's tick at 0
// allocs/op: its candidate buffers are reused scratch.
func TestZeroAllocDelayedReadPick(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	gate := &sched.DelayedRead{Inner: &sched.RoundRobin{}}
	v := &exec.View{Finished: map[int]bool{}, LastWriter: map[string]int{"x": 1}}
	pending := []*exec.Request{
		{TxnID: 1, Action: txn.ActionWrite, Entity: "y"},
		{TxnID: 2, Action: txn.ActionRead, Entity: "x"}, // delayed
		{TxnID: 3, Action: txn.ActionRead, Entity: "u"},
	}
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
		if _, err := exec.Run(exec.Config{Programs: w.Programs, Initial: w.Initial, Policy: p, DataSets: w.DataSets}); err != nil {
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

// TestZeroAllocShardedAdmitLiveSetIndependent pins the cost shape of
// whole-transaction admission on the sharded monitor at 2 and 8 shards:
// AdmitSequence + Commit of a fresh transaction allocates the same
// number of objects and the same number of bytes with 16 resident
// transactions as with 4096 — what a transaction pays does not depend
// on the transactions beside it — and, against the single Monitor, one
// object more for its transaction-table entry plus one per shard its
// footprint spans beyond the first (that shard's monitor keeps its own
// conjunct list for the transaction). Each resident is a live
// uncommitted reader in a private conjunct, so it sits in the
// transaction table and in a shard's graphs. Bytes are compared as the
// most frequent per-call figure, which drops the calls on which an
// amortized table grew (those depend on the table's size, not on the
// admission).
func TestZeroAllocShardedAdmitLiveSetIndependent(t *testing.T) {
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
		partition[0].Add(fmt.Sprintf("x%d", i)) // shard 0 at every shard count
	}
	partition = append(partition, state.NewItemSet("h")) // the last shard

	type admitter interface {
		AdmitSequence([]txn.Op) (bool, *core.Violation)
		Commit(int)
		SetAutoCompact(int) int
	}
	// measure returns allocs and bytes per AdmitSequence+Commit of a
	// read-modify-write of one private item, with or without one of the
	// hot item. A first round over the pool gives every private item the
	// same history, so every measured call does the same work.
	measure := func(m admitter, resident int, hot bool) (allocs float64, bytes uint64) {
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
		monAllocs, _ := measure(core.NewMonitor(partition), small, hot)
		for _, shards := range []int{2, 8} {
			a16, b16 := measure(core.NewShardedMonitor(partition, shards), small, hot)
			a4k, b4k := measure(core.NewShardedMonitor(partition, shards), large, hot)
			if a16 != a4k || b16 != b4k {
				t.Errorf("shards=%d footprint=%d: %v allocs/%d B per admission with %d residents, %v allocs/%d B with %d",
					shards, footprint, a16, b16, small, a4k, b4k, large)
			}
			if a4k > monAllocs+float64(footprint) {
				t.Errorf("shards=%d footprint=%d: %v allocs per admission, Monitor %v: want at most %d more",
					shards, footprint, a4k, monAllocs, footprint)
			}
		}
	}
}
