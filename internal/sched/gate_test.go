package sched

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pwsr/internal/exec"
	"pwsr/internal/program"
	"pwsr/internal/state"
	"pwsr/internal/wal"
)

// gatePartition puts the tick engine's items and the batch engine's in
// separate conjuncts, so neither engine's transactions conflict with the
// other's.
func gatePartition() []state.ItemSet {
	return []state.ItemSet{state.NewItemSet("a", "b", "c"), state.NewItemSet("x", "y")}
}

// tickPrograms are n transactions from id base that read a and write b
// and c: write-write conflicts only, so no interleaving has a cycle.
func tickPrograms(base, n int) map[int]*program.Program {
	ps := make(map[int]*program.Program, n)
	for id := base; id < base+n; id++ {
		ps[id] = program.MustParse(fmt.Sprintf("program T%d { b := a + %d; c := a + 1; }", id, id))
	}
	return ps
}

// batchPrograms are n transactions from id base that read x and write y.
func batchPrograms(base, n int) map[int]*program.Program {
	ps := make(map[int]*program.Program, n)
	for id := base; id < base+n; id++ {
		ps[id] = program.MustParse(fmt.Sprintf("program B%d { y := x + %d; }", id, id))
	}
	return ps
}

func gateInitial() state.DB {
	return state.Ints(map[string]int64{"a": 1, "b": 0, "c": 0, "x": 1, "y": 0})
}

// TestGateSharedByTickAndBatchEngines runs a tick engine and a batch
// engine at once over one gate on core.Monitor — the sharing the gate
// mutex exists for — so each engine's end-of-run stats harvest meets the
// other engine's Pick or AdmitTxn. A counter read outside the gate
// mutex races them (run under -race).
func TestGateSharedByTickAndBatchEngines(t *testing.T) {
	ctx := context.Background()
	g := NewOptimisticCertify(gatePartition(), &RoundRobin{}, nil)
	eng := exec.NewParallelEngine(exec.ParallelConfig{Initial: gateInitial(), Gate: g, Workers: 2})
	for it := 0; it < 8; it++ {
		var (
			wg   sync.WaitGroup
			bres *exec.Result
			berr error
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			bres, berr = eng.ExecuteBatchCtx(ctx, batchPrograms(1000+100*it, 16))
		}()
		tres, terr := exec.RunCtx(ctx, exec.Config{
			Programs: tickPrograms(1+10*it, 6),
			Initial:  gateInitial(),
			Policy:   g,
			DataSets: gatePartition(),
		})
		wg.Wait()
		if terr != nil {
			t.Fatalf("iteration %d: tick run: %v", it, terr)
		}
		if berr != nil {
			t.Fatalf("iteration %d: batch: %v", it, berr)
		}
		if got := tres.Schedule.Len(); got != 18 {
			t.Fatalf("iteration %d: tick run granted %d operations, want 18", it, got)
		}
		if got := bres.Schedule.Len(); got != 32 {
			t.Fatalf("iteration %d: batch committed %d operations, want 32", it, got)
		}
	}
}

// TestGateStatsMatchesParts pins the stats snapshot against the parts it
// gathers, read separately: the certifier's CompactStats, the
// journal's wal.Stats and the gate's Health — after a tick run and
// after a batch, with the engine's Metrics carrying the same snapshot.
func TestGateStatsMatchesParts(t *testing.T) {
	ctx := context.Background()
	g := NewOptimisticCertify(gatePartition(), &RoundRobin{}, nil)
	w, err := wal.NewWriter(wal.NewMemBackend(), wal.Options{GroupEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	g.AttachJournal(w)
	check := func(stage string, m exec.Metrics) {
		t.Helper()
		got := g.Stats()
		cs, ws := g.Monitor().CompactStats(), w.Stats()
		want := exec.GateStats{
			Compact: exec.CompactStats{
				Compactions:   cs.Compactions,
				ReclaimedTxns: cs.ReclaimedTxns,
				ReclaimedOps:  cs.ReclaimedOps,
				LiveTxns:      cs.LiveTxns,
			},
			Log: exec.LogStats{
				Records:         ws.Records,
				LogBytes:        ws.LogBytes,
				Fsyncs:          ws.Fsyncs,
				Snapshots:       ws.Snapshots,
				Retries:         ws.Retries,
				RecoveryReplays: ws.RecoveryReplays,
			},
			Health: g.Health(),
			Stalls: g.memo.census,
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("after %s: Stats() = %+v, want the parts %+v", stage, got, want)
		}
		if got.Log.Records == 0 {
			t.Errorf("after %s: journal holds no records — the comparison is vacuous", stage)
		}
		if !reflect.DeepEqual(m.Gate, got) {
			t.Errorf("after %s: Metrics carry %+v, Stats() = %+v", stage, m.Gate, got)
		}
	}

	res, err := exec.RunCtx(ctx, exec.Config{
		Programs: tickPrograms(1, 6),
		Initial:  gateInitial(),
		Policy:   g,
		DataSets: gatePartition(),
	})
	if err != nil {
		t.Fatalf("tick run: %v", err)
	}
	check("a tick run", res.Metrics)
	res, err = exec.NewParallelEngine(exec.ParallelConfig{Initial: gateInitial(), Gate: g, Workers: 2}).
		ExecuteBatchCtx(ctx, batchPrograms(100, 8))
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	check("a batch", res.Metrics)
}
