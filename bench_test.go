// Benchmarks regenerating the experiment index: the paper's examples
// (EX1–EX5), the lemma machinery (L1–L7, Definition 4), the theorem
// campaigns (T1–T3 and necessity), the performance studies
// (PERF1–PERF4), and the setwise-serializability baseline (BASE1). Run
//
//	make bench        # certification-core families, -benchmem -count=6
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for recorded outputs and their interpretation.
package pwsr_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"pwsr/internal/constraint"
	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/experiments"
	"pwsr/internal/gen"
	"pwsr/internal/mdbs"
	"pwsr/internal/paper"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/serial"
	"pwsr/internal/setwise"
	"pwsr/internal/sim"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// ---------------------------------------------------------------------
// EX1–EX5: the paper's worked examples.
// ---------------------------------------------------------------------

func BenchmarkExample1Notation(b *testing.B) {
	e := paper.Example1()
	d := state.NewItemSet("a", "c")
	for i := 0; i < b.N; i++ {
		t1 := e.Schedule.Txn(1)
		_ = t1.RS()
		_ = t1.WS()
		_ = t1.ReadState()
		_ = t1.WriteState()
		_ = t1.Struct()
		_ = e.Schedule.Restrict(d)
		_ = e.Schedule.FinalState(e.Initial)
	}
}

func BenchmarkExample2Violation(b *testing.B) {
	e := paper.Example2()
	sys := core.NewSystem(e.IC, e.Schema)
	programs := map[int]*program.Program{1: e.Programs[0], 2: e.Programs[1]}
	for i := 0; i < b.N; i++ {
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: programs,
			Initial:  e.Initial,
			Policy:   sched.NewScript(e.Script...),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !sys.CheckPWSR(res.Schedule).PWSR {
			b.Fatal("not PWSR")
		}
		sc, err := sys.CheckStrongCorrectness(res.Schedule, e.Initial)
		if err != nil {
			b.Fatal(err)
		}
		if sc.StronglyCorrect {
			b.Fatal("Example 2 must violate strong correctness")
		}
	}
}

func BenchmarkExample3Lemma3Failure(b *testing.B) {
	e := paper.Example3()
	sys := core.NewSystem(e.IC, e.Schema)
	d := state.NewItemSet("a", "b")
	t1 := e.Schedule.Txn(1)
	p := paper.Example3P(e)
	ds2 := e.Schedule.FinalState(e.Initial)
	for i := 0; i < b.N; i++ {
		vac, holds, err := sys.Lemma3Claim(t1, p, d, e.Initial, ds2)
		if err != nil {
			b.Fatal(err)
		}
		if vac || holds {
			b.Fatal("Example 3 must fail the Lemma 3 conclusion non-vacuously")
		}
	}
}

func BenchmarkExample4UnionInconsistency(b *testing.B) {
	e := paper.Example4()
	sys := core.NewSystem(e.IC, e.Schema)
	d := paper.Example4D()
	t1 := e.Schedule.Txn(1)
	for i := 0; i < b.N; i++ {
		okD, _ := sys.Consistent(e.Initial.Restrict(d))
		okR, _ := sys.Consistent(t1.ReadState())
		okU, _ := sys.Consistent(e.Initial.Restrict(d).MustUnion(t1.ReadState()))
		if !okD || !okR || okU {
			b.Fatal("Example 4 invariants broken")
		}
	}
}

func BenchmarkExample5NonDisjoint(b *testing.B) {
	e := paper.Example5()
	sys := core.NewSystem(e.IC, e.Schema)
	for i := 0; i < b.N; i++ {
		if !sys.CheckPWSR(e.Schedule).PWSR {
			b.Fatal("Example 5 is PWSR")
		}
		if !e.Schedule.IsDelayedRead() {
			b.Fatal("Example 5 is DR")
		}
		if !sys.DataAccessGraph(e.Schedule).Acyclic() {
			b.Fatal("Example 5's DAG is acyclic")
		}
		sc, err := sys.CheckStrongCorrectness(e.Schedule, e.Initial)
		if err != nil {
			b.Fatal(err)
		}
		if sc.StronglyCorrect {
			b.Fatal("Example 5 must fail")
		}
	}
}

// ---------------------------------------------------------------------
// L1–L7 and Definition 4: the lemma machinery.
// ---------------------------------------------------------------------

func BenchmarkLemma1Composition(b *testing.B) {
	ic, _ := constraint.ParseICFromConjuncts("x1 = y1", "x2 > 0 -> y2 > 0", "y3 > 0")
	schema := state.UniformInts(-8, 8, "x1", "y1", "x2", "y2", "y3")
	checker := constraint.NewChecker(ic, schema)
	db := state.Ints(map[string]int64{"x1": 3, "y2": 2, "y3": 1})

	b.Run("decomposed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ok, err := checker.Consistent(db); err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
	// Ablation: solving the whole conjunction at once — the cost the
	// Lemma 1 decomposition saves.
	b.Run("whole", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ok, err := checker.ConsistentWhole(db); err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
}

func BenchmarkLemma2ViewSet(b *testing.B) {
	e := paper.Example5()
	d := e.IC.Partition()[0]
	for i := 0; i < b.N; i++ {
		if err := core.Lemma2Check(e.Schedule, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLemma6DRViewSet(b *testing.B) {
	e := paper.Example5()
	d := e.IC.Partition()[1]
	for i := 0; i < b.N; i++ {
		if err := core.Lemma6Check(e.Schedule, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLemma7WholeTxn(b *testing.B) {
	e := paper.Example2()
	sys := core.NewSystem(e.IC, e.Schema)
	in := program.NewInterp()
	init := state.Ints(map[string]int64{"a": 2, "b": 3, "c": 1})
	t1, ds2, err := in.RunInIsolation(e.Programs[0], init, 1)
	if err != nil {
		b.Fatal(err)
	}
	d := e.IC.Partition()[0]
	for i := 0; i < b.N; i++ {
		vac, holds, err := sys.Lemma7Claim(t1, d, init, ds2)
		if err != nil {
			b.Fatal(err)
		}
		if !vac && !holds {
			b.Fatal("Lemma 7 failed")
		}
	}
}

func BenchmarkDef4State(b *testing.B) {
	e := paper.Example1()
	d := state.NewItemSet("a", "b", "c", "d")
	for i := 0; i < b.N; i++ {
		if err := core.Def4Check(e.Schedule, d, e.Initial); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// T1–T3: theorem validation and necessity campaigns (small instances
// per iteration; the full campaigns run in cmd/pwsrbench).
// ---------------------------------------------------------------------

func benchValidation(b *testing.B, th experiments.Theorem) {
	for i := 0; i < b.N; i++ {
		c, err := experiments.RunValidation(th, 10, int64(i)*10+1)
		if err != nil {
			b.Fatal(err)
		}
		if c.Violations != 0 {
			b.Fatalf("theorem %d violated on seeds %v", th, c.ViolationSeeds)
		}
	}
}

func BenchmarkTheorem1Validation(b *testing.B) { benchValidation(b, experiments.Theorem1) }
func BenchmarkTheorem2Validation(b *testing.B) { benchValidation(b, experiments.Theorem2) }
func BenchmarkTheorem3Validation(b *testing.B) { benchValidation(b, experiments.Theorem3) }

func BenchmarkNecessityExample2Family(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunNecessity(experiments.Theorem1, 10, int64(i)*10+1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBalanceRepair(b *testing.B) {
	tp1 := paper.Example2().Programs[0]
	for i := 0; i < b.N; i++ {
		if _, err := program.Balance(tp1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFixedStructureCheck(b *testing.B) {
	e := paper.Example2()
	b.Run("exhaustive", func(b *testing.B) {
		schema := state.UniformInts(-2, 2, "a", "b", "c")
		for i := 0; i < b.N; i++ {
			rep, err := program.CheckFixedStructure(e.Programs[0], schema, 0, 1)
			if err != nil || rep.Fixed {
				b.Fatal(err, rep.Fixed)
			}
		}
	})
	b.Run("sampled", func(b *testing.B) {
		schema := state.UniformInts(-1000, 1000, "a", "b", "c")
		for i := 0; i < b.N; i++ {
			rep, err := program.CheckFixedStructure(e.Programs[0], schema, 64, 1)
			if err != nil || rep.Fixed {
				b.Fatal(err, rep.Fixed)
			}
		}
	})
}

// ---------------------------------------------------------------------
// PERF1: CAD/CAM long transactions.
// ---------------------------------------------------------------------

func benchCAD(b *testing.B, mk func() exec.Policy) {
	w, longIDs, shortIDs, err := sim.CADWorkload(sim.CADConfig{
		Designs: 4, LongTxns: 2, LongSpan: 4, ShortTxns: 6, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunCAD(w, longIDs, shortIDs, mk()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCAD2PL(b *testing.B) {
	benchCAD(b, func() exec.Policy { return sched.NewC2PL() })
}

func BenchmarkCADPW2PL(b *testing.B) {
	benchCAD(b, func() exec.Policy { return sched.NewPW2PL() })
}

// ---------------------------------------------------------------------
// PERF2: multidatabase local serializability.
// ---------------------------------------------------------------------

func benchMDBS(b *testing.B, mk func() exec.Policy) {
	w, gIDs, lIDs, err := mdbs.Workload(mdbs.Config{Sites: 4, GlobalTxns: 2, LocalTxns: 6, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mdbs.Run(w, gIDs, lIDs, mk()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMDBSLocal(b *testing.B) {
	benchMDBS(b, func() exec.Policy { return sched.NewPW2PL() })
}

func BenchmarkMDBSGlobal2PL(b *testing.B) {
	benchMDBS(b, func() exec.Policy { return sched.NewC2PL() })
}

// ---------------------------------------------------------------------
// PERF3: checker scaling.
// ---------------------------------------------------------------------

func BenchmarkCheckerScaling(b *testing.B) {
	for _, designs := range []int{2, 4, 8} {
		w, _, _, err := sim.CADWorkload(sim.CADConfig{
			Designs: designs, LongTxns: 2, LongSpan: designs,
			ShortTxns: 2 * designs, Seed: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: w.Programs,
			Initial:  w.Initial,
			Policy:   sched.NewPW2PL(),
			DataSets: w.DataSets,
		})
		if err != nil {
			b.Fatal(err)
		}
		sys := core.NewSystem(w.IC, w.Schema)

		b.Run(fmt.Sprintf("pwsr/designs=%d/ops=%d", designs, res.Schedule.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !core.CheckPWSR(res.Schedule, w.DataSets).PWSR {
					b.Fatal("not PWSR")
				}
			}
		})
		b.Run(fmt.Sprintf("strongcorrect/designs=%d/ops=%d", designs, res.Schedule.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc, err := sys.CheckStrongCorrectness(res.Schedule, w.Initial)
				if err != nil || !sc.StronglyCorrect {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// PERF4: certification-core scaling — the optimized online Monitor and
// single-pass BuildGraph against their retained reference
// implementations (ReferenceMonitor, BuildGraphPairwise), across
// ops × txns × items grids, plus the wide-partition batch check.
// `make bench` runs these three benchmarks with -benchmem -count=6;
// EXPERIMENTS.md records the resulting before/after tables.
// ---------------------------------------------------------------------

// benchItems returns n item names.
func benchItems(n int) []string {
	items := make([]string, n)
	for i := range items {
		items[i] = fmt.Sprintf("x%d", i)
	}
	return items
}

// benchPartition deals the items round-robin into conj disjoint
// conjunct data sets.
func benchPartition(items []string, conj int) []state.ItemSet {
	partition := make([]state.ItemSet, conj)
	for e := range partition {
		partition[e] = state.NewItemSet()
	}
	for i, it := range items {
		partition[i%conj].Add(it)
	}
	return partition
}

// rawStream is a uniformly random operation stream (violations and
// all) for graph-construction benchmarks.
func rawStream(nops, txns int, items []string, seed int64) *txn.Schedule {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]txn.Op, nops)
	for i := range ops {
		id := 1 + rng.Intn(txns)
		entity := items[rng.Intn(len(items))]
		if rng.Intn(2) == 0 {
			ops[i] = txn.R(id, entity, 0)
		} else {
			ops[i] = txn.W(id, entity, 1)
		}
	}
	return txn.NewSchedule(ops...)
}

// admissibleStream is a random operation stream filtered through the
// certifier, so every monitor implementation can observe the whole
// stream without tripping a violation — the sustained-admission
// workload a PWSR scheduler generates.
func admissibleStream(nops, txns int, items []string, partition []state.ItemSet, seed int64) *txn.Schedule {
	rng := rand.New(rand.NewSource(seed))
	m := core.NewMonitor(partition)
	ops := make([]txn.Op, 0, nops)
	for attempts := 0; len(ops) < nops && attempts < 40*nops; attempts++ {
		id := 1 + rng.Intn(txns)
		entity := items[rng.Intn(len(items))]
		var o txn.Op
		if rng.Intn(2) == 0 {
			o = txn.R(id, entity, 0)
		} else {
			o = txn.W(id, entity, 1)
		}
		if !m.Admissible(o) {
			continue
		}
		m.Observe(o)
		ops = append(ops, o)
	}
	return txn.NewSchedule(ops...)
}

func BenchmarkMonitorThroughput(b *testing.B) {
	cases := []struct{ ops, txns, items, conj int }{
		{1_000, 8, 32, 1},
		{10_000, 64, 256, 1},
		{10_000, 64, 256, 4},
		{50_000, 64, 512, 4},
	}
	for _, c := range cases {
		items := benchItems(c.items)
		partition := benchPartition(items, c.conj)
		s := admissibleStream(c.ops, c.txns, items, partition, 11)
		name := fmt.Sprintf("ops=%d/txns=%d/items=%d/conj=%d", s.Len(), c.txns, c.items, c.conj)
		b.Run(name+"/opt", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := core.NewMonitor(partition)
				if v := m.ObserveAll(s); v != nil {
					b.Fatal(v)
				}
			}
		})
		b.Run(name+"/ref", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := core.NewReferenceMonitor(partition)
				if v := m.ObserveAll(s); v != nil {
					b.Fatal(v)
				}
			}
		})
	}
}

func BenchmarkBuildGraphScaling(b *testing.B) {
	cases := []struct{ ops, txns, items int }{
		{1_000, 8, 32},
		{5_000, 32, 128},
		{10_000, 64, 256},
	}
	for _, c := range cases {
		s := rawStream(c.ops, c.txns, benchItems(c.items), 13)
		name := fmt.Sprintf("ops=%d/txns=%d/items=%d", c.ops, c.txns, c.items)
		b.Run(name+"/opt", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if g := serial.BuildGraph(s); g == nil {
					b.Fatal("nil graph")
				}
			}
		})
		b.Run(name+"/ref", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if g := serial.BuildGraphPairwise(s); g == nil {
					b.Fatal("nil graph")
				}
			}
		})
	}
}

// BenchmarkCheckPWSRWidePartition measures the batch checker's
// one-pass projection plus sharded per-conjunct graph work on a wide
// partition.
func BenchmarkCheckPWSRWidePartition(b *testing.B) {
	items := benchItems(512)
	partition := benchPartition(items, 8)
	s := admissibleStream(20_000, 64, items, partition, 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !core.CheckPWSR(s, partition).PWSR {
			b.Fatal("not PWSR")
		}
	}
}

// ---------------------------------------------------------------------
// PERF5: certification scheduling — the blocking gate (stalls are its
// failure mode; stalled runs are skipped and reported as a metric)
// against the abort-capable optimistic gate under both victim policies,
// with PW2PL as the pessimistic baseline, over a fixed batch of
// contended gen workloads. `aborts/batch`, `wasted/batch`, and
// `stalls/batch` are reported via b.ReportMetric; EXPERIMENTS.md
// records the tables.
// ---------------------------------------------------------------------

func benchCertifyWorkloads(n int) []*gen.Workload {
	ws := make([]*gen.Workload, n)
	for i := range ws {
		ws[i] = gen.MustGenerate(gen.Config{
			Conjuncts: 3, Programs: 4, MovesPerProgram: 2,
			Style: gen.Style(i % 3), Seed: int64(100 + i),
		})
	}
	return ws
}

func BenchmarkCertifyPolicies(b *testing.B) {
	ws := benchCertifyWorkloads(10)
	cases := []struct {
		name string
		mk   func(w *gen.Workload, seed int64) exec.Policy
	}{
		{"blocking", func(w *gen.Workload, seed int64) exec.Policy {
			return sched.NewCertify(w.DataSets, sched.NewRandom(seed))
		}},
		{"optimistic-youngest", func(w *gen.Workload, seed int64) exec.Policy {
			return sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(seed), sched.VictimYoungest)
		}},
		{"optimistic-fewest-ops", func(w *gen.Workload, seed int64) exec.Policy {
			return sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(seed), sched.VictimFewestOps)
		}},
		{"pw2pl", func(w *gen.Workload, seed int64) exec.Policy { return sched.NewPW2PL() }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var stalls, aborts, wasted int
			for i := 0; i < b.N; i++ {
				for j, w := range ws {
					res, err := exec.RunCtx(context.Background(), exec.Config{
						Programs: w.Programs,
						Initial:  w.Initial,
						Policy:   c.mk(w, int64(j)),
						DataSets: w.DataSets,
					})
					if err != nil {
						if errors.Is(err, exec.ErrStall) {
							stalls++
							continue
						}
						b.Fatal(err)
					}
					aborts += res.Metrics.Aborts
					wasted += res.Metrics.WastedOps
				}
			}
			b.ReportMetric(float64(stalls)/float64(b.N), "stalls/batch")
			b.ReportMetric(float64(aborts)/float64(b.N), "aborts/batch")
			b.ReportMetric(float64(wasted)/float64(b.N), "wasted/batch")
		})
	}
}

// BenchmarkMonitorRetract measures the incremental rollback against the
// reference's rebuild-from-scratch on a long admissible stream:
// retract/re-observe round trips for a mid-stream transaction.
func BenchmarkMonitorRetract(b *testing.B) {
	items := benchItems(256)
	partition := benchPartition(items, 4)
	s := admissibleStream(10_000, 64, items, partition, 19)
	victim := s.TxnIDs()[len(s.TxnIDs())/2]
	victimOps := s.Txn(victim).Ops

	b.Run("incremental", func(b *testing.B) {
		m := core.NewMonitor(partition)
		if v := m.ObserveAll(s); v != nil {
			b.Fatal(v)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Retract(victim)
			for _, o := range victimOps {
				if v := m.Observe(o); v != nil {
					b.Fatal(v)
				}
			}
		}
	})
	b.Run("rebuild-ref", func(b *testing.B) {
		m := core.NewReferenceMonitor(partition)
		if v := m.ObserveAll(s); v != nil {
			b.Fatal(v)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Retract(victim)
			for _, o := range victimOps {
				if v := m.Observe(o); v != nil {
					b.Fatal(v)
				}
			}
		}
	})
}

// ---------------------------------------------------------------------
// PERF14: whole-transaction admission — AdmitSequence + Commit on the
// benchmark's batch-rw shape (eight private conjuncts over 768 items
// plus the one-item hot conjunct, ascending ids, a Compact pass every
// 192 commits), with `resident` live uncommitted transactions parked
// in the monitor beforehand. A parked transaction holds one read of an
// item outside every conjunct under an id above the stream's: it fills
// the dense per-transaction tables and adds no conflict-graph state,
// so the family isolates
// what a transaction's admission pays for the transactions beside it.
// Admission is footprint-sized when ns/op and B/op do not move with
// `resident`.
// ---------------------------------------------------------------------

func BenchmarkAdmitSequence(b *testing.B) {
	const privateConjuncts, privateItems, compactEvery, hotPct = 8, 768, 192, 20
	partition := make([]state.ItemSet, privateConjuncts, privateConjuncts+1)
	for e := range partition {
		partition[e] = state.NewItemSet()
	}
	for i := 0; i < privateItems; i++ {
		partition[i%privateConjuncts].Add(fmt.Sprintf("x%d", i))
	}
	partition = append(partition, state.NewItemSet("h"))

	// The stream: a read-modify-write of one private item, a fifth of
	// the transactions also incrementing the hot item.
	rng := rand.New(rand.NewSource(29))
	shapes := make([][]txn.Op, 1024)
	for j := range shapes {
		x := fmt.Sprintf("x%d", rng.Intn(privateItems))
		shapes[j] = []txn.Op{txn.R(0, x, 0), txn.W(0, x, 1)}
		if rng.Intn(100) < hotPct {
			shapes[j] = append(shapes[j], txn.R(0, "h", 0), txn.W(0, "h", 1))
		}
	}

	for _, resident := range []int{0, 192, 4096} {
		b.Run(fmt.Sprintf("monitor/resident=%d", resident), func(b *testing.B) {
			m := core.NewMonitor(partition)
			m.SetAutoCompact(compactEvery)
			for k := 0; k < resident; k++ {
				if ok, vio := m.AdmitSequence([]txn.Op{txn.R(1<<40+k, "unconstrained", 0)}); !ok || vio != nil {
					b.Fatalf("parking %d: ok=%v, violation %v", k, ok, vio)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for id := 1; id <= b.N; id++ {
				seq := shapes[id%len(shapes)]
				for k := range seq {
					seq[k].Txn = id
				}
				if ok, vio := m.AdmitSequence(seq); !ok || vio != nil {
					b.Fatalf("T%d: ok=%v, violation %v", id, ok, vio)
				}
				m.Commit(id)
			}
		})
	}
}

// ---------------------------------------------------------------------
// PERF15: the interpreter alone. The three template shapes of the
// end-to-end benchmark — batch-rw's writer (a spin loop over a local
// between its read and its write) and reader (a scan into locals), and
// a 16-statement tick program of read-modify-write fixes — run against
// an accessor that does nothing, so ns/op and allocs/op are what the
// interpreter adds to every attempt of every workload.
// ---------------------------------------------------------------------

type nullAccessor struct{}

func (nullAccessor) Read(string) (state.Value, error) { return state.Int(7), nil }
func (nullAccessor) Write(string, state.Value) error  { return nil }

func BenchmarkInterpRun(b *testing.B) {
	var reader, fix strings.Builder
	reader.WriteString("program R {\n  let a := h;\n")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&reader, "  let v%d := x%d;\n", i, 97*i)
	}
	reader.WriteString("}\n")
	fix.WriteString("program Long {\n")
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&fix, "  d%dc%d := abs(d%dc%d) %% 89 + %d;\n", i/4, i%4, i/4, i%4, 1+i%3)
	}
	fix.WriteString("}\n")
	shapes := []struct{ name, src string }{
		{"writer-spin50", "program W {\n  let v := x1;\n  let spin := 50;\n  while (spin > 0) { spin := spin - 1; }\n  x1 := v + 1;\n  h := h + 1;\n}\n"},
		{"reader-scan8", reader.String()},
		{"tick-fix16", fix.String()},
	}
	in := program.NewInterp()
	for _, sh := range shapes {
		p := program.MustParse(sh.src)
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := in.Run(p, nullAccessor{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The same shapes as the tick engine runs them: one Machine per
	// transaction, Init once, Reset per attempt, stepped to each
	// operation, every read answered by Deliver and every write left to
	// the engine.
	for _, sh := range shapes {
		p := program.MustParse(sh.src)
		b.Run("suspended/"+sh.name, func(b *testing.B) {
			var m program.Machine
			m.Init(in, p)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Reset()
				for {
					r, err := m.Step()
					if err != nil {
						b.Fatal(err)
					}
					if r == nil {
						break
					}
					if r.Action == txn.ActionRead {
						m.Deliver(state.Int(7), nil)
					}
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// PERF16: abort and restart on the tick engine. hot-tick's shape — 48
// short read-modify-write programs a round over six conjuncts of four
// items, a fifth of them forced onto one conjunct — through a persistent
// OptimisticCertify gate that sacrifices the youngest victim, so most
// commits are preceded by an erased attempt or two. A round is one
// exec.RunCtx; ns/txn and allocs/txn are per committed transaction, what a
// restart costs included.
// ---------------------------------------------------------------------

func BenchmarkTickAbortRestart(b *testing.B) {
	s := newAbortRestartStream()
	gate := sched.NewOptimisticCertifyOver(s.mon, sched.NewRandom(1), sched.VictimYoungest)

	var before, after runtime.MemStats
	aborts := 0
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.round(gate)
		if err != nil {
			b.Fatal(err)
		}
		aborts += res.Metrics.Aborts
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	txns := float64(b.N * abortRestartWindow)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/txns, "ns/txn")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/txns, "allocs/txn")
	b.ReportMetric(float64(aborts)/txns, "aborts/txn")
}

// ---------------------------------------------------------------------
// PERF20: one tick round in cad-tick's shape — 12 programs a round over
// sixteen conjuncts of four items, two of them sweeping four whole
// conjuncts and the rest touching one to three items of one — through a
// persistent OptimisticCertify gate compacting every 48 commits, with
// each round's Final the next round's initial state, as the benchmark
// chains them. A round is one exec.RunCtx; B/op and allocs/op are per
// round: what the Result owns plus the gate's amortized growth.
// ---------------------------------------------------------------------

func BenchmarkTickRound(b *testing.B) {
	const conjuncts, itemsPer, window, long, span, pool = 16, 4, 12, 2, 4, 1024
	item := func(c, j int) string { return fmt.Sprintf("d%dc%d", c, j) }
	rng := rand.New(rand.NewSource(2))
	db := state.NewDB()
	partition := make([]state.ItemSet, conjuncts)
	for c := range partition {
		partition[c] = state.NewItemSet()
		for j := 0; j < itemsPer; j++ {
			partition[c].Add(item(c, j))
			db.Set(item(c, j), state.Int(int64(1+rng.Intn(5))))
		}
	}
	fix := func(src *strings.Builder, c, j int) {
		fmt.Fprintf(src, "%s := abs(%s) %% 89 + %d;\n", item(c, j), item(c, j), 1+rng.Intn(3))
	}
	longs, shorts := make([]*program.Program, pool/8), make([]*program.Program, pool)
	for k := range longs {
		var src strings.Builder
		fmt.Fprintf(&src, "program Long%d {\n", k)
		start := rng.Intn(conjuncts - span + 1)
		for c := start; c < start+span; c++ {
			for j := 0; j < itemsPer; j++ {
				fix(&src, c, j)
			}
		}
		src.WriteString("}\n")
		longs[k] = program.MustParse(src.String())
	}
	for k := range shorts {
		var src strings.Builder
		fmt.Fprintf(&src, "program Short%d {\n", k)
		c := rng.Intn(conjuncts)
		for i, j := range rng.Perm(itemsPer)[:1+rng.Intn(3)] {
			if rng.Intn(10) < 3 {
				fmt.Fprintf(&src, "let q%d := %s;\n", i, item(c, j))
			} else {
				fix(&src, c, j)
			}
		}
		src.WriteString("}\n")
		shorts[k] = program.MustParse(src.String())
	}
	mon := core.NewMonitor(partition)
	mon.SetAutoCompact(4 * window)
	gate := sched.NewOptimisticCertifyOver(mon, sched.NewRandom(1), sched.VictimYoungest)

	id := 0
	programs := make(map[int]*program.Program, window) // refilled every round
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(programs)
		for j := 0; j < window; j++ {
			id++
			if j < long {
				programs[id] = longs[rng.Intn(len(longs))]
			} else {
				programs[id] = shorts[rng.Intn(len(shorts))]
			}
		}
		res, err := exec.RunCtx(context.Background(), exec.Config{Programs: programs, Initial: db, Policy: gate, DataSets: partition})
		if err != nil {
			b.Fatal(err)
		}
		db = res.Final
	}
}

// ---------------------------------------------------------------------
// PERF17: one batch round on the block-parallel engine. batch-rw's
// shape — 48 writers a round, each a spin-50 read-modify-write of one
// of 768 private items (a fifth also incrementing the hot item), beside
// 48 declared readers scanning the hot item and eight private items —
// through one persistent ParallelEngine over a Monitor gate, so
// the store, the gate and the reader declarations persist across rounds
// as they do in the benchmark. ns/txn and allocs/txn are per committed
// transaction, readers included.
// ---------------------------------------------------------------------

func BenchmarkBatchRound(b *testing.B) {
	const writers, readers, groups, scan, hotPct, privateConjuncts = 48, 48, 16, 8, 20, 8
	rng := rand.New(rand.NewSource(2))
	n := writers * groups
	db := state.NewDB()
	partition := make([]state.ItemSet, privateConjuncts, privateConjuncts+1)
	for e := range partition {
		partition[e] = state.NewItemSet()
	}
	for i := 0; i < n; i++ {
		partition[i%privateConjuncts].Add(fmt.Sprintf("x%d", i))
		db.Set(fmt.Sprintf("x%d", i), state.Int(int64(i)))
	}
	db.Set("h", state.Int(0))
	partition = append(partition, state.NewItemSet("h"))
	writer := make([][2]*program.Program, n)
	for i := range writer {
		for hot := range writer[i] {
			tail := ""
			if hot == 1 {
				tail = "  h := h + 1;\n"
			}
			writer[i][hot] = program.MustParse(fmt.Sprintf(
				"program W%d_%d {\n  let v := x%d;\n  let spin := 50;\n  while (spin > 0) { spin := spin - 1; }\n  x%d := v + 1;\n%s}\n",
				i, hot, i, i, tail))
		}
	}
	reader := make([]*program.Program, 256)
	for k := range reader {
		var src strings.Builder
		fmt.Fprintf(&src, "program R%d {\n  let a := h;\n", k)
		for i, j := range rng.Perm(n)[:scan] {
			fmt.Fprintf(&src, "  let v%d := x%d;\n", i, j)
		}
		src.WriteString("}\n")
		reader[k] = program.MustParse(src.String())
	}

	mon := core.NewMonitor(partition)
	mon.SetAutoCompact(4 * writers)
	ro := make(map[int]bool, readers)
	for j := 1; j <= readers; j++ {
		ro[j] = true
	}
	eng := exec.NewParallelEngine(exec.ParallelConfig{
		Initial:  db,
		Gate:     sched.NewOptimisticCertifyOver(mon, sched.NewRandom(1), sched.VictimYoungest),
		ReadOnly: ro,
	})

	var before, after runtime.MemStats
	id := readers
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		programs := make(map[int]*program.Program, writers+readers)
		for j := 0; j < writers; j++ {
			id++
			hot := 0
			if rng.Intn(100) < hotPct {
				hot = 1
			}
			programs[id] = writer[j*groups+rng.Intn(groups)][hot]
		}
		for j := 1; j <= readers; j++ {
			programs[j] = reader[rng.Intn(len(reader))]
		}
		if _, err := eng.ExecuteBatchCtx(context.Background(), programs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	txns := float64(b.N * (writers + readers))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/txns, "ns/txn")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/txns, "allocs/txn")
}

// ---------------------------------------------------------------------
// BASE1: setwise serializability baseline.
// ---------------------------------------------------------------------

func BenchmarkSetwiseVsPWSR(b *testing.B) {
	w := gen.MustGenerate(gen.Config{Conjuncts: 3, Programs: 3, Style: gen.StyleFixed, Seed: 9})
	res, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: w.Programs,
		Initial:  w.Initial,
		Policy:   sched.NewRandom(9),
	})
	if err != nil {
		b.Fatal(err)
	}
	dec, err := setwise.NewDecomposition(w.DataSets...)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw := setwise.IsSetwiseSerializable(res.Schedule, dec)
		pw := core.CheckPWSR(res.Schedule, w.DataSets).PWSR
		if sw != pw {
			b.Fatal("setwise and PWSR disagree")
		}
	}
}

// ---------------------------------------------------------------------
// Engine and solver microbenchmarks.
// ---------------------------------------------------------------------

func BenchmarkEngineThroughput(b *testing.B) {
	w, _, _, err := sim.CADWorkload(sim.CADConfig{Designs: 4, LongTxns: 2, ShortTxns: 8, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: w.Programs,
			Initial:  w.Initial,
			Policy:   sched.NewRandom(int64(i)),
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

func BenchmarkSolverExtension(b *testing.B) {
	ic, _ := constraint.ParseICFromConjuncts("x1 + y1 = z1 & y1 > x1")
	schema := state.UniformInts(0, 20, "x1", "y1", "z1")
	checker := constraint.NewChecker(ic, schema)
	partial := state.Ints(map[string]int64{"z1": 17})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := checker.Consistent(partial)
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

func BenchmarkScheduleParse(b *testing.B) {
	src := "r2(a, 0), r1(a, 0), w2(d, 0), r1(c, 5), w1(b, 5)"
	for i := 0; i < b.N; i++ {
		if _, err := txn.ParseSchedule(src); err != nil {
			b.Fatal(err)
		}
	}
}

// abortRestartWindow is how many programs one abortRestartStream round
// runs.
const abortRestartWindow = 48

// abortRestartStream is PERF16's generator, seeded with 2: a pool of
// short read-modify-write templates over six conjuncts of four items, a
// fifth forced onto conjunct 0, and a certifier compacting every four
// windows. Each round draws abortRestartWindow fresh ids from the pool
// and chains the store.
type abortRestartStream struct {
	rng       *rand.Rand
	db        state.DB
	partition []state.ItemSet
	templates []*program.Program
	mon       *core.Monitor
	id        int
}

func newAbortRestartStream() *abortRestartStream {
	const conjuncts, itemsPer, hotPct, pool = 6, 4, 20, 1024
	item := func(c, j int) string { return fmt.Sprintf("d%dc%d", c, j) }
	s := &abortRestartStream{rng: rand.New(rand.NewSource(2)), db: state.NewDB()}
	rng := s.rng
	s.partition = make([]state.ItemSet, conjuncts)
	for c := range s.partition {
		s.partition[c] = state.NewItemSet()
		for j := 0; j < itemsPer; j++ {
			s.partition[c].Add(item(c, j))
			s.db.Set(item(c, j), state.Int(int64(1+rng.Intn(5))))
		}
	}
	s.templates = make([]*program.Program, pool)
	for k := range s.templates {
		var src strings.Builder
		fmt.Fprintf(&src, "program Short%d {\n", k)
		c := rng.Intn(conjuncts)
		if rng.Intn(100) < hotPct {
			c = 0
		}
		for i, j := range rng.Perm(itemsPer)[:1+rng.Intn(3)] {
			if rng.Intn(10) < 3 {
				fmt.Fprintf(&src, "let q%d := %s;\n", i, item(c, j))
			} else {
				fmt.Fprintf(&src, "%s := abs(%s) %% 89 + %d;\n", item(c, j), item(c, j), 1+rng.Intn(3))
			}
		}
		src.WriteString("}\n")
		s.templates[k] = program.MustParse(src.String())
	}
	s.mon = core.NewMonitor(s.partition)
	s.mon.SetAutoCompact(4 * abortRestartWindow)
	return s
}

// round runs the stream's next window through policy and chains its
// final state into the next round.
func (s *abortRestartStream) round(policy exec.Policy) (*exec.Result, error) {
	programs := make(map[int]*program.Program, abortRestartWindow)
	for j := 0; j < abortRestartWindow; j++ {
		s.id++
		programs[s.id] = s.templates[s.rng.Intn(len(s.templates))]
	}
	res, err := exec.RunCtx(context.Background(), exec.Config{Programs: programs, Initial: s.db, Policy: policy, DataSets: s.partition})
	if err == nil {
		s.db = res.Final
	}
	return res, err
}
