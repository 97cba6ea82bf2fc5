package sched_test

import (
	"context"
	"fmt"
	"testing"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// gateMonitors builds each certification gate over the same partition
// so lifecycle behavior can be asserted uniformly through the
// Certifier interface.
func gateMonitors(partition []state.ItemSet, seed int64) map[string]struct {
	policy exec.Policy
	mon    sched.Certifier
} {
	certify := sched.NewCertify(partition, sched.NewRandom(seed))
	opt := sched.NewOptimisticCertify(partition, sched.NewRandom(seed), nil)
	par := sched.NewOptimisticCertifyOver(core.NewShardedMonitor(partition, 4), sched.NewRandom(seed), nil)
	return map[string]struct {
		policy exec.Policy
		mon    sched.Certifier
	}{
		"Certify":           {certify, certify.Monitor()},
		"OptimisticCertify": {opt, opt.Monitor()},
		"Sharded":           {par, par.Monitor()},
	}
}

// TestGatesCommitFinishedTxns is the regression for the missing
// completion signal: every certification gate must Commit a finished
// transaction to its certifier, so that once a run completes (every
// transaction finished) a compaction pass reclaims the entire
// certification state. Before the fix the gates never signalled
// completion and the monitor retained every transaction forever.
func TestGatesCommitFinishedTxns(t *testing.T) {
	for _, name := range []string{"Certify", "OptimisticCertify", "Sharded"} {
		// The blocking gate may stall on a conflict-heavy interleaving;
		// retry workloads until a run completes (the lifecycle
		// assertions need every transaction finished).
		completed := false
		for seed := int64(0); seed < 20 && !completed; seed++ {
			w := gen.MustGenerate(gen.Config{
				Conjuncts: 2, Programs: 3, Style: gen.StyleFixed, Seed: 11 + seed,
			})
			g := gateMonitors(w.DataSets, seed)[name]
			_, err := exec.RunCtx(context.Background(), exec.Config{
				Programs: w.Programs,
				Initial:  w.Initial,
				Policy:   g.policy,
				DataSets: w.DataSets,
			})
			if err != nil {
				continue
			}
			completed = true
			g.mon.Compact()
			st := g.mon.CompactStats()
			if st.LiveTxns != 0 {
				t.Errorf("%s: %d transactions still resident after all finished and a compaction pass — TxnFinished is not committing",
					name, st.LiveTxns)
			}
			if st.ReclaimedTxns == 0 {
				t.Errorf("%s: compaction reclaimed no transactions", name)
			}
		}
		if !completed {
			t.Fatalf("%s: no seed completed the workload", name)
		}
	}
}

// TestFinishedTxnDoesNotBlockSuccessor drives the gate directly at the
// monitor level: once a transaction finishes (Commit) and is
// compacted, a conflicting successor must be admitted against an empty
// graph, carrying no edge from its reclaimed predecessor — the
// finished transaction has stopped influencing admission entirely.
func TestFinishedTxnDoesNotBlockSuccessor(t *testing.T) {
	partition := []state.ItemSet{state.NewItemSet("a", "b")}
	for name, g := range gateMonitors(partition, 1) {
		mon := g.mon
		mon.Observe(txn.W(1, "a", 0))
		mon.Observe(txn.W(1, "b", 0))
		mon.Commit(1)
		mon.Compact()
		for _, succ := range []int{2, 3} {
			if !mon.Admissible(txn.W(succ, "a", 0)) {
				t.Fatalf("%s: successor T%d write inadmissible after predecessor was reclaimed", name, succ)
			}
			if v := mon.Observe(txn.W(succ, "a", 0)); v != nil {
				t.Fatalf("%s: %v", name, v)
			}
		}
		// Only the successors' own conflict survives; no trace of T1.
		for _, e := range mon.ConflictEdges(0) {
			if e[0] == 1 || e[1] == 1 {
				t.Fatalf("%s: reclaimed transaction still present in edge %v", name, e)
			}
		}
	}
}

// TestGateLiveTxnsBoundedAcrossRuns reuses one OptimisticCertify gate
// across a long chain of sequential conflicting batches — the
// long-lived-service shape — and asserts the certifier's resident
// population stays bounded by the batch size plus the compaction lag
// instead of growing with the total transaction count, while the
// engine reports the lifecycle counters through Metrics.
func TestGateLiveTxnsBoundedAcrossRuns(t *testing.T) {
	partition := []state.ItemSet{state.NewItemSet("a", "b")}
	gate := sched.NewOptimisticCertify(partition, sched.NewRandom(3), nil)
	const autoEvery = 4
	gate.Monitor().SetAutoCompact(autoEvery)

	const batches, perBatch = 30, 2
	var last *exec.Result
	for b := 0; b < batches; b++ {
		programs := make(map[int]*program.Program, perBatch)
		for p := 0; p < perBatch; p++ {
			id := b*perBatch + p + 1 // globally unique ids: committed ids must not recur
			programs[id] = program.MustParse(fmt.Sprintf("program T%d { a := b + 1; b := a + 1; }", id))
		}
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: programs,
			Initial:  state.Ints(map[string]int64{"a": 0, "b": 0}),
			Policy:   gate,
			DataSets: partition,
		})
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if live := gate.Monitor().CompactStats().LiveTxns; live > perBatch+autoEvery {
			t.Fatalf("batch %d: %d resident transactions, want ≤ %d (batch + compaction lag)",
				b, live, perBatch+autoEvery)
		}
		last = res
	}
	m := last.Metrics
	if m.Compactions == 0 || m.ReclaimedTxns == 0 || m.ReclaimedOps == 0 {
		t.Fatalf("lifecycle counters not surfaced through Metrics: %+v", m)
	}
	if m.LiveTxns > perBatch+autoEvery {
		t.Fatalf("Metrics.LiveTxns = %d, want ≤ %d", m.LiveTxns, perBatch+autoEvery)
	}
	total := batches * perBatch
	if st := gate.Monitor().CompactStats(); st.ReclaimedTxns < total-perBatch-autoEvery {
		t.Fatalf("reclaimed only %d of %d transactions", st.ReclaimedTxns, total)
	}
}
