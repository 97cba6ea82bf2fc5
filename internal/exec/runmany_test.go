package exec_test

import (
	"context"
	"errors"
	"testing"

	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/sched"
)

// TestRunMany checks the concurrent engine entry point: a fleet of
// independently configured runs executed workers-at-a-time must
// produce, run for run, exactly what serial Run produces — the engine
// shares nothing across runs, so concurrency cannot change outcomes.
// The configs are built once and reused across every workers value:
// RunMany clones each cloneable policy per run, so the caller's
// instances stay fresh. Run under -race this also exercises the fleet
// path for data races.
func TestRunMany(t *testing.T) {
	const fleet = 12
	mkCfg := func(i int) (exec.Config, *gen.Workload) {
		w := gen.MustGenerate(gen.Config{
			Conjuncts: 2, Programs: 3, MovesPerProgram: 2,
			Style: gen.Style(i % 3), Seed: int64(300 + i),
		})
		return exec.Config{
			Programs: w.Programs,
			Initial:  w.Initial,
			Policy:   sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(int64(i)), nil),
			DataSets: w.DataSets,
		}, w
	}

	want := make([]*exec.Result, fleet)
	cfgs := make([]exec.Config, fleet)
	for i := 0; i < fleet; i++ {
		cfg, _ := mkCfg(i)
		res, err := exec.RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatalf("serial run %d: %v", i, err)
		}
		want[i] = res
		// Fresh policy instance for the concurrent passes: Run (unlike
		// RunMany) uses the policy in place and dirties it.
		cfgs[i], _ = mkCfg(i)
	}

	for _, workers := range []int{1, 4, 0} {
		results, errs := exec.RunManyCtx(context.Background(), cfgs, workers)
		if len(results) != fleet || len(errs) != fleet {
			t.Fatalf("workers=%d: got %d results, %d errs", workers, len(results), len(errs))
		}
		for i := range results {
			if errs[i] != nil {
				t.Fatalf("workers=%d run %d: %v", workers, i, errs[i])
			}
			if results[i].Schedule.String() != want[i].Schedule.String() {
				t.Fatalf("workers=%d run %d: schedule diverged from serial run", workers, i)
			}
			if !results[i].Final.Equal(want[i].Final) {
				t.Fatalf("workers=%d run %d: final state diverged", workers, i)
			}
		}
	}
}

// opaquePolicy is a deliberately non-cloneable stateful policy: it
// grants the first pending request and counts its decisions.
type opaquePolicy struct{ picks int }

func (p *opaquePolicy) Pick(pending []*exec.Request, v *exec.View) int {
	p.picks++
	return 0
}

func (p *opaquePolicy) TxnFinished(int, *exec.View) {}

// TestRunManySharedPolicy pins the policy-aliasing guard: one
// non-cloneable policy value handed to two Configs fails exactly those
// runs with ErrSharedPolicy — before either executes, so neither
// decision stream is corrupted — while configs with their own policies
// run normally.
func TestRunManySharedPolicy(t *testing.T) {
	mkCfg := func(i int, p exec.Policy) exec.Config {
		w := gen.MustGenerate(gen.Config{
			Conjuncts: 2, Programs: 3, MovesPerProgram: 2, Seed: int64(500 + i),
		})
		return exec.Config{Programs: w.Programs, Initial: w.Initial, Policy: p, DataSets: w.DataSets}
	}
	shared := &opaquePolicy{}
	cfgs := []exec.Config{
		mkCfg(0, shared),
		mkCfg(1, &opaquePolicy{}),
		mkCfg(2, shared),
	}
	results, errs := exec.RunManyCtx(context.Background(), cfgs, 2)
	for _, i := range []int{0, 2} {
		if !errors.Is(errs[i], exec.ErrSharedPolicy) {
			t.Fatalf("run %d: err = %v, want ErrSharedPolicy", i, errs[i])
		}
		if results[i] != nil {
			t.Fatalf("run %d: got a result despite the shared policy", i)
		}
	}
	if errs[1] != nil || results[1] == nil {
		t.Fatalf("run 1 (own policy): result=%v err=%v", results[1], errs[1])
	}
	if shared.picks != 0 {
		t.Fatalf("shared policy was driven %d times; rejection must precede execution", shared.picks)
	}
}
