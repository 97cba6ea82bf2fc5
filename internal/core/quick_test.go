package core_test

import (
	"context"
	"math/rand"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/paper"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/serial"
)

// TestViewSetProperties checks structural invariants of Lemma 2's view
// sets on randomized executions: VS ⊆ d, VS is monotonically
// non-increasing along the serialization order, and VS(T1) = d.
func TestViewSetProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		w := gen.MustGenerate(gen.Config{
			Conjuncts: 2, Programs: 3, Style: gen.StyleFixed, Seed: rng.Int63(),
		})
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: w.Programs,
			Initial:  w.Initial,
			Policy:   sched.NewRandom(rng.Int63()),
		})
		if err != nil {
			t.Fatal(err)
		}
		s := res.Schedule
		for _, d := range w.DataSets {
			proj := s.Restrict(d)
			orders := serial.AllSerializationOrders(proj, 6)
			if orders == nil {
				continue
			}
			for _, order := range orders {
				for _, p := range s.Ops() {
					prev := d.Clone()
					for i := range order {
						vs := core.ViewSet(s, d, order, i, p)
						if !vs.Subset(d) {
							t.Fatalf("VS ⊄ d: %v vs %v", vs, d)
						}
						if i == 0 && !vs.Equal(d) {
							t.Fatalf("VS(T1) = %v, want d", vs)
						}
						if !vs.Subset(prev) {
							t.Fatalf("VS not monotone: %v after %v", vs, prev)
						}
						prev = vs
					}
				}
			}
		}
	}
}

// TestTxnStateProperties checks Definition 4 invariants: the state's
// items are exactly d ∩ (initial ∪ writes), and state(T1) = DS^d.
func TestTxnStateProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 30; trial++ {
		w := gen.MustGenerate(gen.Config{
			Conjuncts: 2, Programs: 3, Style: gen.StyleFixed, Seed: rng.Int63(),
		})
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: w.Programs,
			Initial:  w.Initial,
			Policy:   sched.NewRandom(rng.Int63()),
		})
		if err != nil {
			t.Fatal(err)
		}
		s := res.Schedule
		for _, d := range w.DataSets {
			proj := s.Restrict(d)
			orders := serial.AllSerializationOrders(proj, 4)
			if orders == nil {
				continue
			}
			for _, order := range orders {
				st0 := core.TxnState(s, d, order, 0, w.Initial)
				if !st0.Equal(w.Initial.Restrict(d)) {
					t.Fatalf("state(T1) = %v, want DS^d", st0)
				}
				for i := range order {
					st := core.TxnState(s, d, order, i, w.Initial)
					if !st.Items().Subset(d) {
						t.Fatalf("state items %v outside d %v", st.Items(), d)
					}
				}
			}
		}
	}
}

// TestSerializableImpliesStronglyCorrect is the classical baseline: on
// correct programs, serializable schedules are always strongly correct.
func TestSerializableImpliesStronglyCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		style := gen.Style(trial % 3)
		w := gen.MustGenerate(gen.Config{
			Conjuncts: 2, Programs: 3, Style: style, Seed: rng.Int63(),
		})
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: w.Programs,
			Initial:  w.Initial,
			Policy:   sched.NewC2PL(),
			DataSets: w.DataSets,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !serial.IsCSR(res.Schedule) {
			t.Fatal("C2PL schedule not serializable")
		}
		sys := core.NewSystem(w.IC, w.Schema)
		sc, err := sys.CheckStrongCorrectness(res.Schedule, w.Initial)
		if err != nil {
			t.Fatal(err)
		}
		if !sc.StronglyCorrect {
			t.Fatalf("trial %d: serializable schedule not strongly correct:\n%s\n%v",
				trial, res.Schedule, sc.Violations())
		}
	}
}

// TestLemma2OnRandomizedExecutions runs the Lemma 2 checker across
// randomized executions of all three generator styles.
func TestLemma2OnRandomizedExecutions(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	checked := 0
	for trial := 0; trial < 30; trial++ {
		w := gen.MustGenerate(gen.Config{
			Conjuncts: 2, Programs: 2, Style: gen.Style(trial % 3), Seed: rng.Int63(),
		})
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: w.Programs,
			Initial:  w.Initial,
			Policy:   sched.NewRandom(rng.Int63()),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range w.DataSets {
			if !serial.IsCSR(res.Schedule.Restrict(d)) {
				continue
			}
			if err := core.Lemma2Check(res.Schedule, d); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no serializable projections found; test vacuous")
	}
}

// TestLemma6OnGatedExecutions runs the Lemma 6 checker on DR-gated
// executions.
func TestLemma6OnGatedExecutions(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	checked := 0
	for trial := 0; trial < 30; trial++ {
		w, err := gen.Example2Family(1, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: w.Programs,
			Initial:  w.Initial,
			Policy:   &sched.DelayedRead{Inner: sched.NewRandom(rng.Int63())},
		})
		if err != nil {
			continue // DR stalls are discarded
		}
		if !res.Schedule.IsDelayedRead() {
			t.Fatal("gated schedule not DR")
		}
		for _, d := range w.DataSets {
			if !serial.IsCSR(res.Schedule.Restrict(d)) {
				continue
			}
			if err := core.Lemma6Check(res.Schedule, d); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("vacuous")
	}
}

// TestAnalyzeOnBalancedExample2 closes the loop: the balanced programs
// make Theorem 1 fire in the verdict.
func TestAnalyzeOnBalancedExample2(t *testing.T) {
	e := paper.Example2()
	sys := core.NewSystem(e.IC, e.Schema)
	tp1p, err := program.Balance(e.Programs[0])
	if err != nil {
		t.Fatal(err)
	}
	tp2p, err := program.Balance(e.Programs[1])
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: map[int]*program.Program{1: tp1p, 2: tp2p},
		Initial:  e.Initial,
		Policy:   sched.NewRandom(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := sys.Analyze(res.Schedule, core.AnalyzeOptions{
		Programs: map[int]*program.Program{1: tp1p, 2: tp2p},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.FixedStructure {
		t.Fatal("balanced programs not recognized as fixed-structure")
	}
	if v.PWSR && !v.Theorem1 {
		t.Fatalf("Theorem 1 should fire on PWSR schedules of balanced programs: %+v", v)
	}
	// When a theorem fires, the schedule really is strongly correct.
	if v.Guaranteed {
		sc, err := sys.CheckStrongCorrectness(res.Schedule, e.Initial)
		if err != nil {
			t.Fatal(err)
		}
		if !sc.StronglyCorrect {
			t.Fatal("guaranteed schedule not strongly correct")
		}
	}
}
