package sched_test

import (
	"context"
	"math/rand"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/sched"
)

// TestParallelCertifyDifferential pins the sharded pipeline to the
// single-monitor gate: because ShardedMonitor is observationally
// identical to Monitor under a serialized feed and the engine is
// deterministic for deterministic policies, ParallelCertify at every
// shard count must reproduce OptimisticCertify's run exactly — same
// schedule, same aborts, same final state — for the same workload and
// inner-policy seed. The concurrent probes only change who computes
// the admissibility mask, never its value.
func TestParallelCertifyDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 24; trial++ {
		w := gen.MustGenerate(gen.Config{
			Conjuncts: 2 + trial%3, Programs: 4, MovesPerProgram: 2,
			Style: gen.Style(trial % 3), Seed: rng.Int63(),
		})
		innerSeed := rng.Int63()

		ref, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: w.Programs, Initial: w.Initial,
			Policy:   sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(innerSeed), nil),
			DataSets: w.DataSets,
		})
		if err != nil {
			t.Fatalf("trial %d: single-monitor gate: %v", trial, err)
		}
		for _, shards := range []int{1, 2, 8} {
			gate := sched.NewParallelCertify(w.DataSets, shards, sched.NewRandom(innerSeed), nil)
			res, err := exec.RunCtx(context.Background(), exec.Config{
				Programs: w.Programs, Initial: w.Initial, Policy: gate, DataSets: w.DataSets,
			})
			if err != nil {
				t.Fatalf("trial %d shards=%d: %v", trial, shards, err)
			}
			if res.Schedule.String() != ref.Schedule.String() {
				t.Fatalf("trial %d shards=%d: schedule diverged\n sharded: %s\n  single: %s",
					trial, shards, res.Schedule, ref.Schedule)
			}
			if res.Metrics.Aborts != ref.Metrics.Aborts || res.Metrics.WastedOps != ref.Metrics.WastedOps {
				t.Fatalf("trial %d shards=%d: aborts/wasted %d/%d vs %d/%d", trial, shards,
					res.Metrics.Aborts, res.Metrics.WastedOps, ref.Metrics.Aborts, ref.Metrics.WastedOps)
			}
			if !res.Final.Equal(ref.Final) {
				t.Fatalf("trial %d shards=%d: final state %v vs %v", trial, shards, res.Final, ref.Final)
			}
			// The gate's construction invariants hold on the sharded
			// path too: PWSR ∧ DR by construction.
			if !core.CheckPWSR(res.Schedule, w.DataSets).PWSR {
				t.Fatalf("trial %d shards=%d: schedule not PWSR", trial, shards)
			}
			if !res.Schedule.IsDelayedRead() {
				t.Fatalf("trial %d shards=%d: schedule not delayed-read", trial, shards)
			}
			// Per-shard metrics flow through the engine: every granted
			// operation on a constrained item was observed by a shard.
			if res.Metrics.Shards == nil {
				t.Fatalf("trial %d shards=%d: engine metrics carry no shard stats", trial, shards)
			}
			var probes int64
			for _, st := range res.Metrics.Shards {
				probes += st.Probes
			}
			if probes == 0 {
				t.Fatalf("trial %d shards=%d: no admissibility probes recorded", trial, shards)
			}
		}
	}
}

// TestParallelCertifyShardedMonitorState checks the post-run monitor
// state: the surviving certification state must equal a fresh replay
// of the recorded schedule, shard by shard (the Retract contract
// carried over the sharded path).
func TestParallelCertifyShardedMonitorState(t *testing.T) {
	w := gen.MustGenerate(gen.Config{
		Conjuncts: 4, Programs: 4, MovesPerProgram: 2, Style: gen.StyleFixed, Seed: 5,
	})
	gate := sched.NewParallelCertify(w.DataSets, 4, sched.NewRandom(7), sched.VictimFewestOps)
	res, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: w.Programs, Initial: w.Initial, Policy: gate, DataSets: w.DataSets,
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh := core.NewMonitor(w.DataSets)
	if v := fresh.ObserveAll(res.Schedule); v != nil {
		t.Fatalf("recorded schedule rejected on replay: %v", v)
	}
	sm := gate.ShardedMonitor()
	if sm.Shards() != 4 {
		t.Fatalf("Shards() = %d", sm.Shards())
	}
	for e := range w.DataSets {
		got, want := sm.ConflictEdges(e), fresh.ConflictEdges(e)
		if len(got) != len(want) {
			t.Fatalf("conjunct %d: %d edges vs fresh %d", e, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("conjunct %d edges diverge: %v vs %v", e, got, want)
			}
		}
	}
}
