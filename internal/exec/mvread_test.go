package exec_test

// The multiversion read-path differential suite: declared read-only
// transactions must never be denied or aborted, must not perturb the
// read-write schedule in any way, and the combined (spliced) schedule
// must re-check PWSR with the batch checker and replay
// value-consistently — under both engines, raced at GOMAXPROCS 1 and
// 8 by the Makefile's check legs.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// roProgram builds a pure-reader program over the given items (reads
// land in locals, so the program is ReadOnly and the declaration is
// accepted).
func roProgram(id int, items []string) *program.Program {
	var b strings.Builder
	fmt.Fprintf(&b, "program R%d {\n", id)
	for i, it := range items {
		fmt.Fprintf(&b, "  let v%d := %s;\n", i, it)
	}
	b.WriteString("}\n")
	return program.MustParse(b.String())
}

// sortedItems lists the workload's data items deterministically.
func sortedItems(db state.DB) []string {
	items := make([]string, 0, len(db))
	for k := range db {
		items = append(items, k)
	}
	sort.Strings(items)
	return items
}

// withReaders returns a program map extending rw with nRO declared
// readers (ids 101, 102, ...) over the workload's items, plus the
// ReadOnly declaration map.
func withReaders(rw map[int]*program.Program, items []string, nRO int) (map[int]*program.Program, map[int]bool) {
	mixed := make(map[int]*program.Program, len(rw)+nRO)
	for id, p := range rw {
		mixed[id] = p
	}
	ro := make(map[int]bool, nRO)
	for i := 0; i < nRO; i++ {
		id := 101 + i
		mixed[id] = roProgram(id, items)
		ro[id] = true
	}
	return mixed, ro
}

// rwProjection strips the declared readers' operations out of a
// combined schedule, re-stamping positions — the sub-schedule the
// certification gate actually saw.
func rwProjection(s *txn.Schedule, ro map[int]bool) *txn.Schedule {
	ops := make([]txn.Op, 0, s.Len())
	for _, o := range s.Ops() {
		if !ro[o.Txn] {
			ops = append(ops, o)
		}
	}
	return txn.NewSchedule(ops...)
}

// requireReadersUntouched asserts the read path's core promises on a
// completed mixed run: every declared reader ran exactly once, was
// never aborted, and performed only reads.
func requireReadersUntouched(t *testing.T, ctx string, res *exec.Result, ro map[int]bool) {
	t.Helper()
	if res.Metrics.ROTxns != len(ro) {
		t.Fatalf("%s: ROTxns = %d, want %d", ctx, res.Metrics.ROTxns, len(ro))
	}
	for id := range ro {
		tm := res.Metrics.PerTxn[id]
		if tm == nil {
			t.Fatalf("%s: reader T%d has no metrics", ctx, id)
		}
		if tm.Aborts != 0 {
			t.Fatalf("%s: reader T%d aborted %d times; declared readers must never abort", ctx, id, tm.Aborts)
		}
	}
	for _, o := range res.Schedule.Ops() {
		if ro[o.Txn] && o.Action != txn.ActionRead {
			t.Fatalf("%s: reader op %s is not a read", ctx, o)
		}
	}
}

// mvreadTick is the tick-engine lockstep differential for one
// workload: under the abort-capable optimistic gate (inner policy
// seeded by gateSeed), a mixed run with declared readers beginning at
// begins (ids 101, 102, ...) must leave the read-write sub-schedule,
// final state, abort counts, and gate verdict byte-identical to the
// reader-free twin — the readers are invisible to the gate — while the
// combined spliced schedule re-checks PWSR with the batch checker and
// replays value-consistently. The replay is the aborted-writes oracle:
// an expunged writer's value appears in no committed schedule, so a
// snapshot that ever exposed one cannot replay. It returns the mixed
// run's result.
func mvreadTick(t *testing.T, name string, w *gen.Workload, begins []int, gateSeed int64) *exec.Result {
	t.Helper()
	mixed, ro := withReaders(w.Programs, sortedItems(w.Initial), len(begins))
	roBegin := make(map[int]int, len(begins))
	for i, b := range begins {
		roBegin[101+i] = b
	}
	gateFor := func() *sched.OptimisticCertify {
		return sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(gateSeed), nil)
	}

	gateB := gateFor()
	resB, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: w.Programs, Initial: w.Initial, Policy: gateB, DataSets: w.DataSets,
	})
	if err != nil {
		t.Fatalf("%s: reader-free run: %v", name, err)
	}

	gateA := gateFor()
	resA, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: mixed, Initial: w.Initial, Policy: gateA, DataSets: w.DataSets,
		ReadOnly: ro, ROBegin: roBegin,
	})
	if err != nil {
		t.Fatalf("%s: mixed run: %v", name, err)
	}

	requireReadersUntouched(t, name, resA, ro)
	checkSchedulePositions(t, resA.Schedule) // spliced readers renumber what follows
	checkSchedulePositions(t, resB.Schedule)
	if got, want := rwProjection(resA.Schedule, ro).String(), resB.Schedule.String(); got != want {
		t.Fatalf("%s: readers perturbed the RW schedule\nmixed RW: %s\nrw-only:  %s", name, got, want)
	}
	if !resA.Final.Equal(resB.Final) {
		t.Fatalf("%s: final state diverged", name)
	}
	if resA.Metrics.Aborts != resB.Metrics.Aborts || resA.Metrics.Ticks != resB.Metrics.Ticks {
		t.Fatalf("%s: aborts/ticks diverged: %d/%d vs %d/%d",
			name, resA.Metrics.Aborts, resA.Metrics.Ticks, resB.Metrics.Aborts, resB.Metrics.Ticks)
	}
	if a, b := gateA.Monitor().Ops(), gateB.Monitor().Ops(); a != b {
		t.Fatalf("%s: gate saw %d ops with readers, %d without — readers leaked into the gate", name, a, b)
	}
	if !core.CheckPWSR(resA.Schedule, w.DataSets).PWSR {
		t.Fatalf("%s: combined schedule not PWSR:\n%s", name, resA.Schedule)
	}
	if err := resA.Schedule.ConsistentValues(w.Initial); err != nil {
		t.Fatalf("%s: combined schedule does not replay (a snapshot exposed uncommitted effects?): %v\n%s",
			name, err, resA.Schedule)
	}
	return resA
}

// mvreadCases are the read-path shapes mvreadTick must always see; the
// gate's inner policy is seeded with the workload's seed.
var mvreadCases = []struct {
	name   string
	cfg    gen.Config
	begins []int
}{
	// Writers abort and restart under the optimistic gate (the fixture
	// TestMVReadNeverObservesAbortedWrites pins) while readers beginning
	// at spread ticks snapshot mid-run prefixes around the expunges.
	{"aborting-optimistic-writers", gen.Config{Conjuncts: 1, Programs: 3, MovesPerProgram: 1, Style: gen.StyleFixed}, []int{0, 2, 4, 6, 8, 10}},
	// A reader at tick 0 reads the initial state; one beginning beyond
	// the run's last tick is served the full final prefix.
	{"begin-zero-and-beyond-end", gen.Config{Conjuncts: 2, Programs: 3, MovesPerProgram: 2, Style: gen.StyleOrdered, Seed: 5}, []int{0, 1 << 30}},
	// Readers sharing one begin tick snapshot the same sealed prefix and
	// splice at the same anchor, in whatever relative order.
	{"coincident-readers-one-anchor", gen.Config{Conjuncts: 1, Programs: 4, MovesPerProgram: 2, Style: gen.StyleConditional, Seed: 23}, []int{3, 3, 3, 3}},
	// Readers spread across three conjuncts while the sealed prefix
	// advances steadily.
	{"spread-readers", gen.Config{Conjuncts: 3, Programs: 4, MovesPerProgram: 2, Style: gen.StyleConditional, Seed: 11}, []int{1, 3, 5, 7}},
}

// TestMVReadDifferentialTick runs mvreadTick over six generated
// workloads with readers at ticks 0, 4 and beyond the run — each with
// a contrast run pushing the same readers through the gate as ordinary
// transactions, which must still complete PWSR with an equal final
// state but gives its readers no immunity — then over
// mvreadCases, then — unless -short — over a sweep of seeds 7..206, each
// drawing a small workload and two to five reader begins in [0, 16).
func TestMVReadDifferentialTick(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		w := gen.MustGenerate(gen.Config{
			Conjuncts: 2 + trial%3, Programs: 4 + trial%3, MovesPerProgram: 2,
			Style: gen.Style(trial % 3), Seed: int64(7700 + trial),
		})
		name := fmt.Sprintf("trial %d", trial)
		resA := mvreadTick(t, name, w, []int{0, 4, 1 << 30}, int64(31*trial))

		// Contrast run: the same readers as ordinary gated
		// transactions. On these fixtures it completes (abort-capable
		// gate) with the same final state — readers write nothing — but
		// through the gate they are ordinary certification traffic.
		mixed, _ := withReaders(w.Programs, sortedItems(w.Initial), 3)
		resC, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: mixed, Initial: w.Initial, DataSets: w.DataSets,
			Policy: sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(int64(31*trial)), nil),
		})
		if err != nil {
			t.Fatalf("%s: through-gate run: %v", name, err)
		}
		if !resC.Final.Equal(resA.Final) {
			t.Fatalf("%s: through-gate final state diverged from bypass", name)
		}
		if !core.CheckPWSR(resC.Schedule, w.DataSets).PWSR {
			t.Fatalf("%s: through-gate schedule not PWSR", name)
		}
	}
	for _, c := range mvreadCases {
		mvreadTick(t, c.name, gen.MustGenerate(c.cfg), c.begins, c.cfg.Seed)
	}
	if testing.Short() {
		return
	}
	for seed := int64(7); seed <= 206; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := gen.MustGenerate(gen.Config{
			Conjuncts:       1 + rng.Intn(3),
			Programs:        3 + rng.Intn(2),
			MovesPerProgram: 1 + rng.Intn(2),
			Style:           gen.Style(rng.Intn(3)),
			Seed:            seed,
		})
		var begins []int
		for n := 2 + rng.Intn(4); n > 0; n-- {
			begins = append(begins, rng.Intn(16))
		}
		mvreadTick(t, fmt.Sprintf("seed %d", seed), w, begins, seed)
	}
}

// FuzzMVRead runs mvreadTick over a fuzzed workload shape and reader
// begins, one begin tick per byte (255 stands for a tick beyond the
// run); plain go test replays mvreadCases as its seeds.
func FuzzMVRead(f *testing.F) {
	for _, c := range mvreadCases {
		begins := make([]byte, len(c.begins))
		for i, b := range c.begins {
			begins[i] = byte(min(b, 255))
		}
		f.Add(uint8(c.cfg.Conjuncts), uint8(c.cfg.Programs), uint8(c.cfg.MovesPerProgram), uint8(c.cfg.Style), c.cfg.Seed, begins)
	}
	f.Fuzz(func(t *testing.T, conjuncts, programs, moves, style uint8, seed int64, begins []byte) {
		if conjuncts > 4 || programs > 6 || moves > 4 || len(begins) == 0 || len(begins) > 8 {
			t.Skip("outside the case bounds")
		}
		w, err := gen.Generate(gen.Config{
			Conjuncts: int(conjuncts), Programs: int(programs), MovesPerProgram: int(moves),
			Style: gen.Style(style % 3), Seed: seed,
		})
		if err != nil {
			t.Skip() // a shape the generator rejects
		}
		ticks := make([]int, len(begins))
		for i, b := range begins {
			ticks[i] = int(b)
			if b == 255 {
				ticks[i] = 1 << 30
			}
		}
		mvreadTick(t, "fuzz", w, ticks, seed)
	})
}

// TestMVReadNeverObservesAbortedWrites is the satellite regression for
// the retraction boundary: on a fixture whose optimistic gate
// deterministically aborts victims, snapshots acquired at spread
// begin ticks — while aborted attempts are being expunged around them
// — must only ever observe committed (finished-prefix) state. The
// proof is the combined schedule's value-consistent replay: an
// expunged write appears in no schedule, so a reader that had observed
// one could not replay.
func TestMVReadNeverObservesAbortedWrites(t *testing.T) {
	// The stalling fixture of TestCertifyStallsOptimisticCompletes: the
	// optimistic gate completes it only by sacrificing victims.
	w := gen.MustGenerate(gen.Config{
		Conjuncts: 1, Programs: 3, MovesPerProgram: 1, Style: gen.StyleFixed, Seed: 0,
	})
	items := sortedItems(w.Initial)
	const nRO = 6
	mixed, ro := withReaders(w.Programs, items, nRO)
	begins := make(map[int]int, nRO)
	for i := 0; i < nRO; i++ {
		begins[101+i] = 2 * i // spread across the run; the last lands beyond it
	}

	gate := sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(0), nil)
	res, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: mixed, Initial: w.Initial, Policy: gate, DataSets: w.DataSets,
		ReadOnly: ro, ROBegin: begins,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Aborts == 0 {
		t.Fatal("vacuous: the fixture no longer aborts anything")
	}
	requireReadersUntouched(t, "abort fixture", res, ro)
	if err := res.Schedule.ConsistentValues(w.Initial); err != nil {
		t.Fatalf("a reader observed non-committed state: %v\n%s", err, res.Schedule)
	}
	if !core.CheckPWSR(res.Schedule, w.DataSets).PWSR {
		t.Fatalf("combined schedule not PWSR:\n%s", res.Schedule)
	}

	// Anchor diversity: the spread begin ticks must have produced at
	// least two distinct snapshot points, or the test exercises only
	// the trivial full-prefix seal.
	anchors := make(map[int]bool)
	for _, o := range res.Schedule.Ops() {
		if ro[o.Txn] {
			anchors[o.Pos-countROBefore(res.Schedule, ro, o.Pos)] = true
		}
	}
	if len(anchors) < 2 {
		t.Fatalf("vacuous: all %d readers anchored at the same prefix", nRO)
	}

	// The gate never saw a reader: its monitor state equals the
	// reader-free twin's.
	twin := sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(0), nil)
	resB, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: w.Programs, Initial: w.Initial, Policy: twin, DataSets: w.DataSets,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rwProjection(res.Schedule, ro).String(), resB.Schedule.String(); got != want {
		t.Fatalf("readers perturbed the aborting RW schedule\nmixed RW: %s\nrw-only:  %s", got, want)
	}
	if gate.Monitor().Ops() != twin.Monitor().Ops() {
		t.Fatalf("gate ops %d with readers vs %d without", gate.Monitor().Ops(), twin.Monitor().Ops())
	}
}

// countROBefore counts reader operations strictly before position pos
// — turning a reader op's combined-schedule position back into its
// read-write anchor offset.
func countROBefore(s *txn.Schedule, ro map[int]bool, pos int) int {
	n := 0
	for _, o := range s.Ops() {
		if o.Pos < pos && ro[o.Txn] {
			n++
		}
	}
	return n
}

// TestMVReadROBeginSchedulesSnapshots pins the begin-tick semantics on
// a hand-built serial fixture: a reader beginning at tick 0 snapshots
// the initial state, one beginning mid-run snapshots exactly the
// finished prefix sealed at its tick, and one beginning beyond the run
// snapshots the final state.
func TestMVReadROBeginSchedulesSnapshots(t *testing.T) {
	programs := map[int]*program.Program{
		1:   program.MustParse("program T1 {\n  x := x + 1;\n}\n"),
		2:   program.MustParse("program T2 {\n  x := x + 1;\n}\n"),
		101: roProgram(101, []string{"x"}),
		102: roProgram(102, []string{"x"}),
		103: roProgram(103, []string{"x"}),
	}
	ro := map[int]bool{101: true, 102: true, 103: true}
	res, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: programs,
		Initial:  state.Ints(map[string]int64{"x": 0}),
		Policy:   &sched.Serial{},
		ReadOnly: ro,
		ROBegin:  map[int]int{101: 0, 102: 3, 103: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int64{101: 0, 102: 1, 103: 2}
	for _, o := range res.Schedule.Ops() {
		if exp, isRO := want[o.Txn]; isRO {
			if got := o.Value.AsInt(); got != exp {
				t.Fatalf("reader T%d read x = %d, want %d\n%s", o.Txn, got, exp, res.Schedule)
			}
		}
	}
	if res.Metrics.ROTxns != 3 || res.Metrics.ROOps != 3 {
		t.Fatalf("ROTxns/ROOps = %d/%d, want 3/3", res.Metrics.ROTxns, res.Metrics.ROOps)
	}
	// Ticks count only read-write grants; the splice put the readers at
	// their anchors (start, after T1's two ops, end).
	if res.Metrics.Ticks != 4 || res.Schedule.Len() != 7 {
		t.Fatalf("Ticks = %d Len = %d, want 4 and 7", res.Metrics.Ticks, res.Schedule.Len())
	}
	if err := res.Schedule.ConsistentValues(state.Ints(map[string]int64{"x": 0})); err != nil {
		t.Fatalf("combined schedule does not replay: %v", err)
	}
	if res.Metrics.MV.Stamp == 0 {
		t.Fatal("MV stats not populated")
	}
}

// TestMVReadRejectsWriters pins the declaration contract on both
// engines: a ReadOnly declaration naming a writing program (or no
// program at all) fails before anything executes.
func TestMVReadRejectsWriters(t *testing.T) {
	writer := program.MustParse("program W {\n  x := x + 1;\n}\n")
	initial := state.Ints(map[string]int64{"x": 0})
	partition := []state.ItemSet{state.NewItemSet("x")}

	_, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: map[int]*program.Program{1: writer},
		Initial:  initial,
		Policy:   &sched.Serial{},
		ReadOnly: map[int]bool{1: true},
	})
	if !errors.Is(err, exec.ErrReadOnlyWrite) {
		t.Fatalf("Run with writing reader: err = %v, want ErrReadOnlyWrite", err)
	}

	_, err = exec.RunCtx(context.Background(), exec.Config{
		Programs: map[int]*program.Program{1: writer},
		Initial:  initial,
		Policy:   &sched.Serial{},
		ReadOnly: map[int]bool{9: true},
	})
	if err == nil || !strings.Contains(err.Error(), "no program") {
		t.Fatalf("Run with unknown reader id: err = %v, want a no-program error", err)
	}

	gate := sched.NewOptimisticCertify(partition, &sched.Serial{}, nil)
	_, err = exec.RunParallelCtx(context.Background(), exec.ParallelConfig{
		Initial: initial, Gate: gate, ReadOnly: map[int]bool{1: true},
	}, map[int]*program.Program{1: writer})
	if !errors.Is(err, exec.ErrReadOnlyWrite) {
		t.Fatalf("RunParallel with writing reader: err = %v, want ErrReadOnlyWrite", err)
	}

	// The text check is decided when a program is built; a hand-built
	// literal is judged from its text at each batch. A let whose branch
	// is not taken leaves its name an item, so a program the text check
	// passes can still write: the dynamic check catches it at the write.
	literal := &program.Program{Name: "W", Body: writer.Body}
	sneaky := program.MustParse("program S {\n  if (x > 5) { let x := 0; }\n  x := 1;\n}\n")
	if !sneaky.ReadOnly() {
		t.Fatal("the text check was expected to pass S (its let precedes the assignment)")
	}
	for name, p := range map[string]*program.Program{"literal writer": literal, "write behind an untaken let": sneaky} {
		_, err = exec.RunCtx(context.Background(), exec.Config{
			Programs: map[int]*program.Program{1: p}, Initial: initial, Policy: &sched.Serial{}, ReadOnly: map[int]bool{1: true},
		})
		if !errors.Is(err, exec.ErrReadOnlyWrite) {
			t.Errorf("Run, %s: err = %v, want ErrReadOnlyWrite", name, err)
		}
		_, err = exec.RunParallelCtx(context.Background(), exec.ParallelConfig{
			Initial: initial, Gate: sched.NewOptimisticCertify(partition, &sched.Serial{}, nil), ReadOnly: map[int]bool{1: true},
		}, map[int]*program.Program{1: p})
		if !errors.Is(err, exec.ErrReadOnlyWrite) {
			t.Errorf("RunParallel, %s: err = %v, want ErrReadOnlyWrite", name, err)
		}
	}
}

// TestMVReadDifferentialParallel is the batch-engine lockstep
// differential: mixed batches with declared readers, at worker counts
// 1..8, must reproduce the serial reference's read-write schedule,
// final state, tick count, and certifier state exactly — reader placement may float (snapshots are
// taken when workers reach them) but the combined schedule must
// re-check PWSR and replay value-consistently at every placement.
func TestMVReadDifferentialParallel(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		w := gen.MustGenerate(gen.Config{
			Conjuncts: 2 + trial%3, Programs: 5 + trial%4, MovesPerProgram: 2 + trial%2,
			Style: gen.Style(trial % 3), Seed: int64(8800 + trial),
		})
		items := sortedItems(w.Initial)
		mixed, ro := withReaders(w.Programs, items, 3)
		want, refGate := serialReference(t, w)

		for workers := 1; workers <= 8; workers++ {
			ctx := fmt.Sprintf("trial %d workers %d", trial, workers)
			gate := sched.NewOptimisticCertify(w.DataSets, &sched.Serial{}, nil)
			res, err := exec.RunParallelCtx(context.Background(), exec.ParallelConfig{
				Initial: w.Initial, Gate: gate, Workers: workers, ReadOnly: ro,
			}, mixed)
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}

			requireReadersUntouched(t, ctx, res, ro)
			checkBatchSpans(t, ctx, res)
			if got := rwProjection(res.Schedule, ro).String(); got != want.Schedule.String() {
				t.Fatalf("%s: RW schedule diverged from serial reference\nmixed RW: %s\nserial:   %s",
					ctx, got, want.Schedule)
			}
			if !res.Final.Equal(want.Final) {
				t.Fatalf("%s: final state diverged", ctx)
			}
			if res.Metrics.Ticks != want.Metrics.Ticks {
				t.Fatalf("%s: Ticks = %d, serial reference %d (readers must not consume ticks)",
					ctx, res.Metrics.Ticks, want.Metrics.Ticks)
			}
			sm := gate.Monitor()
			if !sm.PWSR() || sm.Violation() != nil {
				t.Fatalf("%s: certifier unhealthy: %v", ctx, sm.Violation())
			}
			if refOps := refGate.Monitor().Ops(); sm.Ops() != refOps {
				t.Fatalf("%s: certifier holds %d ops, reference %d — readers leaked into the gate",
					ctx, sm.Ops(), refOps)
			}
			if !core.CheckPWSR(res.Schedule, w.DataSets).PWSR {
				t.Fatalf("%s: combined schedule not PWSR:\n%s", ctx, res.Schedule)
			}
			if err := res.Schedule.ConsistentValues(w.Initial); err != nil {
				t.Fatalf("%s: combined schedule does not replay: %v\n%s", ctx, err, res.Schedule)
			}
			if res.Metrics.MV.Pins != 0 {
				t.Fatalf("%s: %d snapshots leaked", ctx, res.Metrics.MV.Pins)
			}
		}
	}
}

// TestMVReadRetentionFollowsCompactWatermark pins the low-watermark
// coupling end to end on a deterministic single-item pipeline: with a
// certifying gate whose monitor compacts every 5 commits, the store's
// retention floor must land exactly on the stamp of the last commit at
// or below the certifier's Compact watermark — versions above it stay
// acquirable (AcquireAt is never denied down to the floor), versions
// below are reclaimed (ErrSnapshotRetired).
func TestMVReadRetentionFollowsCompactWatermark(t *testing.T) {
	const n = 12
	programs := make(map[int]*program.Program, n)
	for i := 1; i <= n; i++ {
		programs[i] = program.MustParse(fmt.Sprintf("program T%d {\n  x := x + 1;\n}\n", i))
	}
	partition := []state.ItemSet{state.NewItemSet("x")}
	gate := sched.NewOptimisticCertify(partition, &sched.Serial{}, nil)
	gate.Monitor().SetAutoCompact(5)

	eng := exec.NewParallelEngine(exec.ParallelConfig{
		Initial: state.Ints(map[string]int64{"x": 0}),
		Gate:    gate,
		Workers: 4,
	})
	res, err := eng.ExecuteBatchCtx(context.Background(), programs)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Final.Get("x"); v.AsInt() != n {
		t.Fatalf("x = %v, want %d", v, n)
	}

	// Commits land in id order writing one stamp each, so stamp k is
	// transaction k's commit. Compaction passes ran at commits 5 and
	// 10, reclaiming the committed prefix: watermark 10, floor 10.
	if wm := gate.CompactWatermark(); wm != 10 {
		t.Fatalf("CompactWatermark = %d, want 10", wm)
	}
	store := eng.Store()
	st := store.VersionStats()
	if st.Stamp != n || st.Floor != 10 {
		t.Fatalf("Stamp/Floor = %d/%d, want %d/10", st.Stamp, st.Floor, n)
	}
	if st.Versions != 3 { // stamps 10, 11, 12 of x
		t.Fatalf("Versions = %d, want 3 retained back to the watermark", st.Versions)
	}

	// Every stamp back to the floor is acquirable and reads the state
	// of its commit prefix; below the floor is retired.
	for stamp := st.Floor; stamp <= st.Stamp; stamp++ {
		sn, err := store.AcquireAt(stamp)
		if err != nil {
			t.Fatalf("AcquireAt(%d): %v", stamp, err)
		}
		if v, ok := sn.Get("x"); !ok || v.AsInt() != int64(stamp) {
			t.Fatalf("snapshot at %d reads x = %v, want %d", stamp, v, stamp)
		}
		sn.Release()
	}
	if _, err := store.AcquireAt(st.Floor - 1); !errors.Is(err, exec.ErrSnapshotRetired) {
		t.Fatalf("AcquireAt below floor: err = %v, want ErrSnapshotRetired", err)
	}
	if _, err := store.AcquireAt(st.Stamp + 1); err == nil || errors.Is(err, exec.ErrSnapshotRetired) {
		t.Fatalf("AcquireAt beyond newest: err = %v, want a non-retired error", err)
	}
}

// TestMVReadCrossBatchIDDiscipline pins the guard protecting the
// watermark queue: advanceFloor drains (txn, stamp) pairs against the
// certifier's Compact watermark by raw id comparison, so a
// watermark-anchored engine must reject a batch whose ids are not
// above every prior batch's — a reused lower id would drain stale
// queue entries and advance the retention floor past versions the
// certifier has not reclaimed.
func TestMVReadCrossBatchIDDiscipline(t *testing.T) {
	partition := []state.ItemSet{state.NewItemSet("x")}
	gate := sched.NewOptimisticCertify(partition, &sched.Serial{}, nil)
	eng := exec.NewParallelEngine(exec.ParallelConfig{
		Initial: state.Ints(map[string]int64{"x": 0}),
		Gate:    gate,
	})
	batch := func(ids ...int) map[int]*program.Program {
		ps := make(map[int]*program.Program, len(ids))
		for _, id := range ids {
			ps[id] = program.MustParse(fmt.Sprintf("program T%d {\n  x := x + 1;\n}\n", id))
		}
		return ps
	}
	if _, err := eng.ExecuteBatchCtx(context.Background(), batch(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	// Ascending ids across batches are fine.
	if _, err := eng.ExecuteBatchCtx(context.Background(), batch(4, 5)); err != nil {
		t.Fatal(err)
	}
	// A batch whose lowest id does not exceed every prior id is
	// rejected before anything runs.
	if _, err := eng.ExecuteBatchCtx(context.Background(), batch(5, 6)); err == nil {
		t.Fatal("ExecuteBatchCtx accepted a reused transaction id on a watermark-anchored engine")
	}
	// The rejection leaves the engine usable: the high-water mark was
	// not advanced by the rejected batch.
	if res, err := eng.ExecuteBatchCtx(context.Background(), batch(7)); err != nil {
		t.Fatalf("batch after rejection: %v", err)
	} else if v, _ := res.Final.Get("x"); v.AsInt() != 6 {
		t.Fatalf("x = %v, want 6 (three batches of increments)", v)
	}
}

// TestRejectedReaderKeepsBatchIDs is the regression test for a batch
// rejected up front by its reader declarations on a watermark-anchored
// engine: nothing ran, so its ids were never used, and the corrected
// batch resubmitted under the same ids must run. The engine used to
// record the batch's highest id before it checked the readers, and
// refused the resubmission as "not above prior batch maximum".
func TestRejectedReaderKeepsBatchIDs(t *testing.T) {
	partition := []state.ItemSet{state.NewItemSet("x")}
	eng := exec.NewParallelEngine(exec.ParallelConfig{
		Initial:  state.Ints(map[string]int64{"x": 0}),
		Gate:     sched.NewOptimisticCertify(partition, &sched.Serial{}, nil),
		ReadOnly: map[int]bool{100: true},
	})
	batch := func(reader string) map[int]*program.Program {
		return map[int]*program.Program{
			1:   program.MustParse("program T1 {\n  x := x + 1;\n}\n"),
			2:   program.MustParse("program T2 {\n  x := x + 1;\n}\n"),
			100: program.MustParse(reader),
		}
	}
	if _, err := eng.ExecuteBatchCtx(context.Background(), batch("program R {\n  x := x;\n}\n")); !errors.Is(err, exec.ErrReadOnlyWrite) {
		t.Fatalf("a declared reader that writes: err = %v, want ErrReadOnlyWrite", err)
	}
	res, err := eng.ExecuteBatchCtx(context.Background(), batch("program R {\n  let v := x;\n}\n"))
	if err != nil {
		t.Fatalf("the corrected batch under the same ids: %v", err)
	}
	if v, _ := res.Final.Get("x"); v.AsInt() != 2 {
		t.Fatalf("x = %v, want 2", v)
	}
}
