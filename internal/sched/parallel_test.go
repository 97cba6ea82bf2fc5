package sched_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/sched"
)

// TestShardedGateDifferential pins the optimistic gate over a
// ShardedMonitor to the same gate over a Monitor: because ShardedMonitor
// is observationally identical to Monitor under a serialized feed and
// the engines are deterministic for deterministic policies, the sharded
// gate at every shard count must reproduce the single-monitor gate's
// run exactly. The tick leg runs the tick engine (same schedule, aborts
// and final state); the batch leg runs the block-parallel engine's
// whole-transaction admission, batch-rw's configuration (same schedule,
// final state and lifecycle counters, compaction passes inside the
// batch included).
func TestShardedGateDifferential(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(91))
	compactions := 0
	for trial := 0; trial < 24; trial++ {
		w := gen.MustGenerate(gen.Config{
			Conjuncts: 2 + trial%3, Programs: 4, MovesPerProgram: 2,
			Style: gen.Style(trial % 3), Seed: rng.Int63(),
		})
		innerSeed := rng.Int63()

		ref, err := exec.RunCtx(ctx, exec.Config{
			Programs: w.Programs, Initial: w.Initial,
			Policy:   sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(innerSeed), nil),
			DataSets: w.DataSets,
		})
		if err != nil {
			t.Fatalf("trial %d: single-monitor gate: %v", trial, err)
		}
		batch := func(gate *sched.OptimisticCertify) *exec.Result {
			t.Helper()
			gate.Monitor().SetAutoCompact(2)
			res, err := exec.NewParallelEngine(exec.ParallelConfig{Initial: w.Initial, Gate: gate, Workers: 2}).
				ExecuteBatchCtx(ctx, w.Programs)
			if err != nil {
				t.Fatalf("trial %d: batch: %v", trial, err)
			}
			return res
		}
		refGate := sched.NewOptimisticCertify(w.DataSets, &sched.Serial{}, nil)
		refBatch := batch(refGate)
		compactions += refGate.Stats().Compact.Compactions
		for _, shards := range []int{1, 2, 8} {
			gate := sched.NewOptimisticCertifyOver(core.NewShardedMonitor(w.DataSets, shards), sched.NewRandom(innerSeed), nil)
			res, err := exec.RunCtx(ctx, exec.Config{
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

			batchGate := sched.NewOptimisticCertifyOver(core.NewShardedMonitor(w.DataSets, shards), &sched.Serial{}, nil)
			bres := batch(batchGate)
			if bres.Schedule.String() != refBatch.Schedule.String() {
				t.Fatalf("trial %d shards=%d: batch schedule diverged\n sharded: %s\n  single: %s",
					trial, shards, bres.Schedule, refBatch.Schedule)
			}
			if !bres.Final.Equal(refBatch.Final) {
				t.Fatalf("trial %d shards=%d: batch final state %v vs %v", trial, shards, bres.Final, refBatch.Final)
			}
			if got, want := batchGate.Stats().Compact, refGate.Stats().Compact; got != want {
				t.Fatalf("trial %d shards=%d: batch lifecycle %+v vs %+v", trial, shards, got, want)
			}
		}
	}
	if compactions == 0 {
		t.Fatal("vacuous: no compaction pass ran inside a batch")
	}
}

// TestShardedGateMonitorState checks the post-run monitor state of the
// optimistic gate over a ShardedMonitor: the surviving certification
// state must equal a fresh replay of the recorded schedule, shard by
// shard (the Retract contract carried over the sharded path).
func TestShardedGateMonitorState(t *testing.T) {
	w := gen.MustGenerate(gen.Config{
		Conjuncts: 4, Programs: 4, MovesPerProgram: 2, Style: gen.StyleFixed, Seed: 5,
	})
	sm := core.NewShardedMonitor(w.DataSets, 4)
	gate := sched.NewOptimisticCertifyOver(sm, sched.NewRandom(7), sched.VictimFewestOps)
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
	if sm.Shards() != 4 {
		t.Fatalf("Shards() = %d", sm.Shards())
	}
	for e := range w.DataSets {
		if got, want := sm.ConflictEdges(e), fresh.ConflictEdges(e); !slices.Equal(got, want) {
			t.Fatalf("conjunct %d edges diverge: %v vs %v", e, got, want)
		}
	}
}
