package sched_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"pwsr/internal/exec"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/state"
)

// soakTargetOps is the operation volume the long-run soak streams
// through a single OptimisticCertify gate (`make soak` runs it alone;
// the test is skipped under -short).
const soakTargetOps = 1_000_000

// TestSoakOptimisticCertifyBoundedMemory is the long-lived-service
// soak: one OptimisticCertify gate certifies a stream of ≥ 1M
// operations arriving as sequential batches of conflicting
// transactions with globally increasing ids — the admission shape of a
// certifier embedded in a server, where the transaction population
// turns over continuously. With the lifecycle wired (TxnFinished →
// Commit → automatic Compact), the certifier's resident transaction
// count must stay bounded by the concurrent window plus the compaction
// lag, and the process heap must plateau instead of growing with the
// stream.
func TestSoakOptimisticCertifyBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipped under -short (run via `make soak`)")
	}
	const (
		window    = 8  // programs in flight per batch
		conjuncts = 4  // conjunct count; two programs share each conjunct
		autoEvery = 32 // commits per automatic compaction pass
	)
	partition := make([]state.ItemSet, conjuncts)
	initial := map[string]int64{}
	for c := range partition {
		partition[c] = state.NewItemSet()
		for _, it := range []string{"a", "b", "c", "d"} {
			name := fmt.Sprintf("c%d%s", c, it)
			partition[c].Add(name)
			initial[name] = 0
		}
	}
	templates := make([]*program.Program, window)
	for p := range templates {
		c := p % conjuncts
		// A write-once chain over the conjunct's items (the strict
		// discipline caches repeat reads and forbids double writes):
		// 3 read + 4 write operations per transaction.
		templates[p] = program.MustParse(fmt.Sprintf(
			"program S { c%[1]da := c%[1]db + 1; c%[1]db := c%[1]dc + 1; c%[1]dc := c%[1]dd + 1; c%[1]dd := c%[1]da + 1; }",
			c))
	}

	gate := sched.NewOptimisticCertify(partition, sched.NewRandom(97), nil)
	gate.Monitor().SetAutoCompact(autoEvery)

	readHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	var (
		totalOps, totalTxns, batches int
		maxLive                      int
		warmHeap                     uint64
		warmOps                      int
	)
	nextID := 1
	for totalOps < soakTargetOps {
		programs := make(map[int]*program.Program, window)
		for p := 0; p < window; p++ {
			programs[nextID] = templates[p]
			nextID++
		}
		totalTxns += window
		res, err := exec.RunCtx(context.Background(), exec.Config{
			Programs: programs,
			Initial:  state.Ints(initial),
			Policy:   gate,
			DataSets: partition,
		})
		if err != nil {
			t.Fatalf("batch %d: %v", batches, err)
		}
		totalOps += res.Schedule.Len()
		batches++
		if live := res.Metrics.Gate.Compact.LiveTxns; live > maxLive {
			maxLive = live
		}
		// Warm-up checkpoint: heap after the caches and the first
		// compactions settle, the reference the plateau is judged
		// against.
		if warmHeap == 0 && totalOps >= soakTargetOps/10 {
			warmHeap = readHeap()
			warmOps = totalOps
		}
	}
	if !gate.Monitor().PWSR() {
		t.Fatalf("soak stream violated PWSR: %v", gate.Monitor().Violation())
	}

	// The resident population must track the window, not the stream.
	bound := window + autoEvery + window // window + compaction lag + abort-churn slack
	if maxLive > bound {
		t.Fatalf("peak resident transactions %d exceeds bound %d (window %d, auto-compact %d) over %d transactions",
			maxLive, bound, window, autoEvery, totalTxns)
	}

	// Heap must plateau: after 10× more operations than the warm-up
	// point, a linearly-growing certifier would dwarf the warm heap.
	finalHeap := readHeap()
	if finalHeap > 2*warmHeap+16<<20 {
		t.Fatalf("heap grew from %d bytes (at %d ops) to %d bytes (at %d ops); certifier state is not bounded",
			warmHeap, warmOps, finalHeap, totalOps)
	}

	st := gate.Monitor().CompactStats()
	if st.ReclaimedTxns < totalTxns-bound {
		t.Fatalf("reclaimed only %d of %d transactions", st.ReclaimedTxns, totalTxns)
	}
	t.Logf("soak: %d ops in %d batches, %d transactions; peak live %d (bound %d); warm heap %d B → final heap %d B; stats %+v",
		totalOps, batches, totalTxns, maxLive, bound, warmHeap, finalHeap, st)
}
