package sched_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/sched"
)

// TestCertifySchedulesArePWSR runs random workloads under the
// certifying gate: every completed run must produce a PWSR schedule,
// and the gate's own monitor must agree with the batch checker.
func TestCertifySchedulesArePWSR(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	completed, stalled := 0, 0
	for trial := 0; trial < 60; trial++ {
		w := gen.MustGenerate(gen.Config{
			Conjuncts: 2, Programs: 3, Style: gen.StyleFixed, Seed: rng.Int63(),
		})
		gate := sched.NewCertify(w.DataSets, sched.NewRandom(rng.Int63()))
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: w.Programs,
			Initial:  w.Initial,
			Policy:   gate,
			DataSets: w.DataSets,
		})
		if err != nil {
			if errors.Is(err, exec.ErrStall) {
				stalled++
				continue
			}
			t.Fatal(err)
		}
		completed++
		if !core.CheckPWSR(res.Schedule, w.DataSets).PWSR {
			t.Fatalf("trial %d: certified schedule not PWSR:\n%s", trial, res.Schedule)
		}
		if !gate.Monitor().PWSR() {
			t.Fatalf("trial %d: gate monitor disagrees with batch checker", trial)
		}
	}
	if completed == 0 {
		t.Fatalf("vacuous: all %d trials stalled", stalled)
	}
}

// TestCertifyBlocksCycleClosingOp drives the lost-update interleaving
// against the gate directly: the write that would close the cycle must
// be filtered out, forcing the inner policy to see only admissible
// requests.
func TestCertifyBlocksCycleClosingOp(t *testing.T) {
	w := gen.MustGenerate(gen.Config{
		Conjuncts: 1, Programs: 2, Style: gen.StyleFixed, Seed: 7,
	})
	// A random inner policy may stall when every remaining request is
	// inadmissible, but whatever completes must be PWSR; run a few
	// seeds to get at least one completion.
	done := false
	for seed := int64(0); seed < 20 && !done; seed++ {
		gate := sched.NewCertify(w.DataSets, sched.NewRandom(seed))
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: w.Programs,
			Initial:  w.Initial,
			Policy:   gate,
			DataSets: w.DataSets,
		})
		if err != nil {
			continue
		}
		done = true
		if !core.CheckPWSR(res.Schedule, w.DataSets).PWSR {
			t.Fatalf("seed %d: certified schedule not PWSR", seed)
		}
	}
	if !done {
		t.Fatal("no seed completed under the gate")
	}
}
