package exec_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// forcedRestart wraps an inner policy and forces exactly one stall
// after a fixed number of grants, naming a fixed victim — the smallest
// gate that restarts, for exercising the engine's abort machinery
// directly.
type forcedRestart struct {
	exec.Policy
	nopGate
	victim  int
	after   int
	granted int
	aborted []int
	// t, when set, audits the view's per-transaction op index and its
	// replay over initial after every abort and at every Pick (see
	// checkOpIndex and checkViewReplay).
	t       *testing.T
	initial state.DB
}

// checkOpIndex requires View.FirstOp and View.OpCount, which the engine
// maintains incrementally, to equal a from-scratch recomputation over
// v.Ops for every transaction of the run, and the schedule to be
// numbered densely.
func checkOpIndex(t *testing.T, v *exec.View) {
	t.Helper()
	first, count := make(map[int]int), make(map[int]int)
	for i, o := range v.Ops {
		if o.Pos != i {
			t.Fatalf("Ops[%d].Pos = %d", i, o.Pos)
		}
		if _, ok := first[o.Txn]; !ok {
			first[o.Txn] = i
		}
		count[o.Txn]++
	}
	for _, ids := range []map[int]bool{v.Live, v.Finished} {
		for id := range ids {
			wantPos, wantStarted := first[id]
			if pos, started := v.FirstOp(id); pos != wantPos || started != wantStarted {
				t.Fatalf("FirstOp(%d) = %d, %v; the schedule says %d, %v\n%v", id, pos, started, wantPos, wantStarted, v.Ops)
			}
			if n := v.OpCount(id); n != count[id] {
				t.Fatalf("OpCount(%d) = %d; the schedule holds %d\n%v", id, n, count[id], v.Ops)
			}
		}
	}
}

// checkViewReplay requires the view's Store and its LastWriter, indexed
// by run item and kept in place by the engine's grants and erasures, to
// equal a replay of v.Ops over initial, every item the schedule writes
// to be in Items, and each pending request's Item to index its own name.
func checkViewReplay(t *testing.T, v *exec.View, initial state.DB, pending []*exec.Request) {
	t.Helper()
	store, writer := initial.Clone(), make(map[string]int)
	for _, o := range v.Ops {
		if o.Action == txn.ActionWrite {
			store.Set(o.Entity, o.Value)
			writer[o.Entity] = o.Txn
		}
	}
	if !v.Store.Equal(store) {
		t.Fatalf("Store = %s; the schedule replays to %s\n%v", v.Store, store, v.Ops)
	}
	if len(v.LastWriter) != len(v.Items) {
		t.Fatalf("LastWriter holds %d entries for %d items", len(v.LastWriter), len(v.Items))
	}
	for i, name := range v.Items {
		if v.LastWriter[i] != writer[name] {
			t.Fatalf("LastWriter[%d] (%s) = T%d; the schedule says T%d\n%v", i, name, v.LastWriter[i], writer[name], v.Ops)
		}
		delete(writer, name)
	}
	if len(writer) > 0 {
		t.Fatalf("written items %v are missing from Items %v", writer, v.Items)
	}
	for _, r := range pending {
		if int(r.Item) >= len(v.Items) || v.Items[r.Item] != r.Entity {
			t.Fatalf("%s carries Item %d of Items %v", r, r.Item, v.Items)
		}
	}
}

// checkSchedulePositions requires a Result's schedule — copied out of
// the engine's recycled arena as it stands, not renumbered — to be
// numbered densely from 0 and clipped to its length.
func checkSchedulePositions(t *testing.T, s *txn.Schedule) {
	t.Helper()
	ops := s.Ops()
	for i, o := range ops {
		if o.Pos != i {
			t.Fatalf("schedule op %d (%s) carries position %d\n%s", i, o, o.Pos, s)
		}
	}
	if cap(ops) != len(ops) {
		t.Fatalf("schedule of %d operations exposes capacity %d of the engine's buffer", len(ops), cap(ops))
	}
}

func (f *forcedRestart) Pick(pending []*exec.Request, v *exec.View) int {
	if f.t != nil {
		checkOpIndex(f.t, v)
		checkViewReplay(f.t, v, f.initial, pending)
	}
	if f.granted == f.after && len(f.aborted) == 0 {
		return -1
	}
	i := f.Policy.Pick(pending, v)
	if i >= 0 {
		f.granted++
	}
	return i
}

func (f *forcedRestart) Victim(pending []*exec.Request, v *exec.View) int {
	for i, r := range pending {
		if r.TxnID == f.victim {
			return i
		}
	}
	return -1
}

func (f *forcedRestart) TxnAborted(id int, v *exec.View) {
	f.aborted = append(f.aborted, id)
	if f.t != nil {
		checkOpIndex(f.t, v)
		checkViewReplay(f.t, v, f.initial, nil)
	}
}

// TestRestartSeesNothingOfErasedAttempt is non-interference through the
// engine: a victim stopped mid-attempt holds a local, a cached read and a
// written mark in its interpreter frame, and the item it read changes
// before it restarts. The restarted attempt must read the item again and
// see the new value, rebuild the local from it, and write the item it had
// already written once without tripping the strict double-write check.
func TestRestartSeesNothingOfErasedAttempt(t *testing.T) {
	programs := map[int]*program.Program{
		1: program.MustParse(`program A { let t := x; y := t + 1; z := z + x; }`),
		2: program.MustParse(`program B { x := 100; }`),
	}
	initial := state.Ints(map[string]int64{"x": 0, "y": 0, "z": 0})
	// Round-robin grants r1(x, 0), w2(x, 100), w1(y, 1); the forced
	// stall then aborts T1, parked on r1(z).
	pol := &forcedRestart{Policy: &sched.RoundRobin{}, victim: 1, after: 3, t: t, initial: initial}
	res, err := exec.RunCtx(context.Background(), exec.Config{Programs: programs, Initial: initial, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.Aborts; got != 1 {
		t.Fatalf("Aborts = %d, want 1\n%s", got, res.Schedule)
	}
	checkSchedulePositions(t, res.Schedule)
	if got := res.Schedule.Txn(1).Ops.String(); got != "r1(x, 100), w1(y, 101), r1(z, 0), w1(z, 100)" {
		t.Fatalf("restarted attempt = %s", got)
	}
	if err := res.Schedule.ConsistentValues(initial); err != nil {
		t.Fatalf("schedule does not replay: %v\n%s", err, res.Schedule)
	}
}

// TestEngineAbortUndoesWrites aborts a transaction that already wrote:
// its operations must leave the schedule, the store must roll back, and
// the restarted attempt must rerun against the restored value.
func TestEngineAbortUndoesWrites(t *testing.T) {
	programs := map[int]*program.Program{
		1: program.MustParse(`program A { x := x + 1; q := q + 1; }`),
		2: program.MustParse(`program B { y := y + 1; }`),
	}
	initial := state.Ints(map[string]int64{"x": 0, "y": 0, "q": 0})
	// Round-robin grants r1(x), r2(y), w1(x); then the forced stall
	// aborts T1 (still live: q remains), whose write must be undone.
	pol := &forcedRestart{Policy: &sched.RoundRobin{}, victim: 1, after: 3}
	res, err := exec.RunCtx(context.Background(), exec.Config{Programs: programs, Initial: initial, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.Aborts; got != 1 {
		t.Fatalf("Aborts = %d, want 1", got)
	}
	if got := res.Metrics.Restarts; got != 1 {
		t.Fatalf("Restarts = %d, want 1", got)
	}
	if got := res.Metrics.WastedOps; got != 2 { // r1(x), w1(x) expunged
		t.Fatalf("WastedOps = %d, want 2", got)
	}
	if got := res.Metrics.PerTxn[1].Aborts; got != 1 {
		t.Fatalf("T1 aborts = %d, want 1", got)
	}
	if got := res.Metrics.PerTxn[1].Ops; got != 4 {
		t.Fatalf("T1 surviving ops = %d, want 4", got)
	}
	// The surviving schedule must replay value-consistently: the
	// restarted T1 read the restored x = 0, not its aborted write.
	if err := res.Schedule.ConsistentValues(initial); err != nil {
		t.Fatalf("schedule does not replay: %v\n%s", err, res.Schedule)
	}
	if got := res.Final.MustGet("x"); got.AsInt() != 1 {
		t.Fatalf("final x = %s, want 1", got)
	}
	if len(pol.aborted) != 1 || pol.aborted[0] != 1 {
		t.Fatalf("TxnAborted notifications = %v, want [1]", pol.aborted)
	}
	// Exactly one attempt of each transaction survives.
	if res.Schedule.Len() != 6 {
		t.Fatalf("schedule = %s", res.Schedule)
	}
}

// TestEngineAbortRestoresSurvivingWrite aborts a transaction that
// overwrote a finished transaction's value: the item must fall back to
// that surviving write — found in the schedule, not the initial state.
func TestEngineAbortRestoresSurvivingWrite(t *testing.T) {
	programs := map[int]*program.Program{
		1: program.MustParse(`program A { x := 5; }`),
		2: program.MustParse(`program B { x := 7; q := q + 1; }`),
		3: program.MustParse(`program C { y := x; }`),
	}
	initial := state.Ints(map[string]int64{"x": 1, "y": 0, "q": 0})
	// w1(x,5) finishes T1, w2(x,7); the forced stall aborts T2; T3 then
	// reads x and must see T1's 5 before T2's second attempt runs.
	pol := &forcedRestart{Policy: sched.NewScript(1, 2, 3, 3, 2, 2, 2), victim: 2, after: 2, t: t, initial: initial}
	res, err := exec.RunCtx(context.Background(), exec.Config{Programs: programs, Initial: initial, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Final.MustGet("y"); got.AsInt() != 5 {
		t.Fatalf("final y = %s, want 5 (x rolled back to T1's surviving write)\n%s", got, res.Schedule)
	}
	if err := res.Schedule.ConsistentValues(initial); err != nil {
		t.Fatalf("schedule does not replay: %v\n%s", err, res.Schedule)
	}
}

// youngestAfter grants the transactions of first in order, one request
// each, and from then on always the youngest pending request.
type youngestAfter struct {
	first []int
}

func (y *youngestAfter) Pick(pending []*exec.Request, v *exec.View) int {
	if len(y.first) == 0 {
		return len(pending) - 1 // pending is sorted by transaction id
	}
	for i, r := range pending {
		if r.TxnID == y.first[0] {
			y.first = y.first[1:]
			return i
		}
	}
	return -1
}

func (y *youngestAfter) TxnFinished(int, *exec.View) {}

// TestEngineAbortRestoresLiveWriter is Kuznetsov and Peri's
// non-interference for a rollback onto a live writer: T2 overwrites the
// x of T1, which is still live, and is aborted. The undo must give x
// back to T1 as its last writer, not to nobody, or the delayed-read gate
// lets T3 read T1's uncommitted 5 and the schedule is not DR.
func TestEngineAbortRestoresLiveWriter(t *testing.T) {
	programs := map[int]*program.Program{
		1: program.MustParse(`program A { x := 5; p := 1; }`),
		2: program.MustParse(`program B { x := 7; q := q + 1; }`),
		3: program.MustParse(`program C { y := x; }`),
	}
	initial := state.Ints(map[string]int64{"x": 1, "y": 0, "p": 0, "q": 0})
	// w1(x, 5), w2(x, 7); the forced stall aborts T2. From then on the
	// youngest request the gate allows goes first, so r3(x) runs the
	// moment the gate stops delaying it.
	pol := &forcedRestart{
		Policy: &sched.DelayedRead{Inner: &youngestAfter{first: []int{1, 2}}},
		victim: 2, after: 2, t: t, initial: initial,
	}
	res, err := exec.RunCtx(context.Background(), exec.Config{Programs: programs, Initial: initial, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.Aborts; got != 1 {
		t.Fatalf("Aborts = %d, want 1\n%s", got, res.Schedule)
	}
	if !res.Schedule.IsDelayedRead() {
		t.Fatalf("schedule is not DR: the abort forgot T1 as x's live writer\n%s", res.Schedule)
	}
	if err := res.Schedule.ConsistentValues(initial); err != nil {
		t.Fatalf("schedule does not replay: %v\n%s", err, res.Schedule)
	}
}

// TestEngineAbortCascades aborts a writer whose value another live
// transaction has read: the reader's attempt consumed erased state, so
// it must abort and restart too.
func TestEngineAbortCascades(t *testing.T) {
	programs := map[int]*program.Program{
		1: program.MustParse(`program A { x := 5; z := z + 1; }`),
		2: program.MustParse(`program B { y := x; }`),
	}
	initial := state.Ints(map[string]int64{"x": 1, "y": 0, "z": 0})
	// Round-robin grants w1(x,5), r2(x,5); aborting T1 must cascade to
	// T2, which read the erased 5.
	pol := &forcedRestart{Policy: &sched.RoundRobin{}, victim: 1, after: 2, t: t, initial: initial}
	res, err := exec.RunCtx(context.Background(), exec.Config{Programs: programs, Initial: initial, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics.Aborts; got != 2 {
		t.Fatalf("Aborts = %d, want 2 (cascade)", got)
	}
	if len(pol.aborted) != 2 {
		t.Fatalf("TxnAborted notifications = %v, want both members", pol.aborted)
	}
	if err := res.Schedule.ConsistentValues(initial); err != nil {
		t.Fatalf("schedule does not replay: %v\n%s", err, res.Schedule)
	}
	if got := res.Final.MustGet("y"); got.AsInt() != 5 {
		t.Fatalf("final y = %s, want 5 (restarted T2 re-read T1's write)", got)
	}
}

// TestEngineAbortPinnedVictim: a victim whose written value was read by
// a transaction that already finished cannot be erased; the run must
// fail with ErrStall rather than corrupt the finished transaction's
// history.
func TestEngineAbortPinnedVictim(t *testing.T) {
	programs := map[int]*program.Program{
		1: program.MustParse(`program A { x := 5; z := z + 1; }`),
		2: program.MustParse(`program B { y := x; }`),
	}
	initial := state.Ints(map[string]int64{"x": 1, "y": 0, "z": 0})
	// Script: w1(x,5), r2(x,5), w2(y,5) — T2 finishes having read T1's
	// write — then the forced stall names the now-pinned T1.
	pol := &forcedRestart{Policy: sched.NewScript(1, 2, 2, 1, 1), victim: 1, after: 3}
	_, err := exec.RunCtx(context.Background(), exec.Config{Programs: programs, Initial: initial, Policy: pol})
	if !errors.Is(err, exec.ErrStall) {
		t.Fatalf("err = %v, want ErrStall", err)
	}
	if !strings.Contains(err.Error(), "pinned") {
		t.Fatalf("err = %v, want the pinned-victim explanation", err)
	}
}

// TestEngineAbortClosureView checks the eligibility view a Gate
// consults: the closure contains the transitive live readers, and
// pinning is reported.
func TestEngineAbortClosureView(t *testing.T) {
	programs := map[int]*program.Program{
		1: program.MustParse(`program A { x := 5; z := z + 1; }`),
		2: program.MustParse(`program B { y := x; w := w + 1; }`),
	}
	initial := state.Ints(map[string]int64{"x": 1, "y": 0, "z": 0, "w": 0})
	var sawClosure []int
	probe := &closureProbe{Policy: sched.NewScript(1, 2, 2, 1, 1, 2, 2), onPick: func(v *exec.View) {
		if sawClosure == nil {
			if c, ok := v.AbortClosure(1); ok && len(c) == 2 {
				sawClosure = c
			}
		}
	}}
	if _, err := exec.RunCtx(context.Background(), exec.Config{Programs: programs, Initial: initial, Policy: probe}); err != nil {
		t.Fatal(err)
	}
	if len(sawClosure) != 2 || sawClosure[0] != 1 || sawClosure[1] != 2 {
		t.Fatalf("closure = %v, want [1 2] while T2's read of x is live", sawClosure)
	}
}

// closureProbe lets a test inspect the View at every Pick.
type closureProbe struct {
	exec.Policy
	onPick func(v *exec.View)
}

func (p *closureProbe) Pick(pending []*exec.Request, v *exec.View) int {
	p.onPick(v)
	return p.Policy.Pick(pending, v)
}

// TestEngineAbortBudget: a policy that names a victim forever must be
// stopped by the abort budget, not loop.
func TestEngineAbortBudget(t *testing.T) {
	programs := map[int]*program.Program{
		1: program.MustParse(`program A { x := x + 1; }`),
	}
	initial := state.Ints(map[string]int64{"x": 0})
	pol := &alwaysAbort{}
	_, err := exec.RunCtx(context.Background(), exec.Config{Programs: programs, Initial: initial, Policy: pol, MaxAborts: 8})
	if !errors.Is(err, exec.ErrStall) {
		t.Fatalf("err = %v, want ErrStall after the abort budget", err)
	}
	if !strings.Contains(err.Error(), "abort budget") {
		t.Fatalf("err = %v, want the abort-budget explanation", err)
	}
}

// alwaysAbort grants nothing and sacrifices the first pending
// transaction forever.
type alwaysAbort struct{ nopGate }

func (a *alwaysAbort) Pick(pending []*exec.Request, v *exec.View) int   { return -1 }
func (a *alwaysAbort) TxnFinished(id int, v *exec.View)                 {}
func (a *alwaysAbort) Victim(pending []*exec.Request, v *exec.View) int { return 0 }

// waitLedger is the reference the engine's O(1) wait accounting is
// pinned against: the per-tick walk over the pending list the engine
// used to make — every pending transaction but the granted one waits a
// tick — kept here. It wraps the restarting policy under test, passes
// every passEvery-th tick on its own, and records completion order.
type waitLedger struct {
	exec.Gate
	t         *testing.T
	initial   state.DB
	passEvery int
	picks     int
	waits     map[int]int
	finished  []int
}

func (l *waitLedger) Pick(pending []*exec.Request, v *exec.View) int {
	checkOpIndex(l.t, v)
	checkViewReplay(l.t, v, l.initial, pending)
	l.picks++
	choice := exec.PassTick
	if l.picks%l.passEvery != 0 {
		choice = l.Gate.Pick(pending, v)
	}
	if choice == exec.PassTick || (choice >= 0 && choice < len(pending)) {
		for i, r := range pending {
			if i != choice {
				l.waits[r.TxnID]++
			}
		}
	}
	return choice
}

func (l *waitLedger) TxnAborted(id int, v *exec.View) {
	checkOpIndex(l.t, v)
	checkViewReplay(l.t, v, l.initial, nil)
	l.Gate.TxnAborted(id, v)
}
func (l *waitLedger) TxnFinished(id int, v *exec.View) {
	l.finished = append(l.finished, id)
	l.Gate.TxnFinished(id, v)
}

// TestEngineIdenticalAcrossRunsAndProcs is the transport's identity
// differential: one Config — an optimistic gate that restarts victims,
// under a wrapper that also passes ticks — run 50 times each at
// GOMAXPROCS 1 and 8 yields the byte-identical history, DeepEqual
// Metrics and the same TxnFinished order every time; the Waits in those
// Metrics equal the reference ledger's per-tick count; and programs
// finishing in the same gather (the two without operations) report in
// ascending id order.
func TestEngineIdenticalAcrossRunsAndProcs(t *testing.T) {
	w := gen.MustGenerate(gen.Config{Conjuncts: 2, Programs: 10, MovesPerProgram: 3, Seed: 11})
	programs := make(map[int]*program.Program, len(w.Programs)+2)
	for id, p := range w.Programs {
		programs[id] = p
	}
	idle := program.MustParse(`program Idle { let a := 1; }`)
	programs[101], programs[102] = idle, idle

	type outcome struct {
		history  []byte
		metrics  exec.Metrics
		finished []int
	}
	run := func() outcome {
		ledger := &waitLedger{
			t:         t,
			initial:   w.Initial,
			Gate:      sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(5), nil),
			passEvery: 7,
			waits:     make(map[int]int),
		}
		res, err := exec.RunCtx(context.Background(), exec.Config{Programs: programs, Initial: w.Initial, Policy: ledger, DataSets: w.DataSets})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for id, tm := range res.Metrics.PerTxn {
			if tm.Waits != ledger.waits[id] {
				t.Fatalf("T%d Waits = %d, the per-tick reference counts %d", id, tm.Waits, ledger.waits[id])
			}
			total += tm.Waits
		}
		if res.Metrics.Waits != total {
			t.Fatalf("Metrics.Waits = %d, per-transaction sum %d", res.Metrics.Waits, total)
		}
		checkSchedulePositions(t, res.Schedule)
		history, err := txn.EncodeHistory(w.Initial, res.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{history: history, metrics: res.Metrics, finished: ledger.finished}
	}

	want := run()
	if m := want.metrics; m.Aborts == 0 || m.Waits == 0 {
		t.Fatalf("the workload exercises no victim restart or no wait: %+v", m)
	}
	if len(want.finished) != len(programs) || want.finished[0] != 101 || want.finished[1] != 102 {
		t.Fatalf("TxnFinished order = %v, want the idle programs first, ascending", want.finished)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 50; i++ {
			got := run()
			if !bytes.Equal(got.history, want.history) {
				t.Fatalf("GOMAXPROCS %d run %d: history differs:\n%s\nwant\n%s", procs, i, got.history, want.history)
			}
			if !reflect.DeepEqual(got.metrics, want.metrics) {
				t.Fatalf("GOMAXPROCS %d run %d: metrics = %+v, want %+v", procs, i, got.metrics, want.metrics)
			}
			if !slices.Equal(got.finished, want.finished) {
				t.Fatalf("GOMAXPROCS %d run %d: TxnFinished order = %v, want %v", procs, i, got.finished, want.finished)
			}
		}
	}
}
