package pwsr_test

import (
	"testing"

	"pwsr/internal/exec"
	"pwsr/internal/sched"
)

// victimCounter counts the gate's Victim calls.
type victimCounter struct {
	*sched.OptimisticCertify
	calls int
}

func (g *victimCounter) Victim(pending []*exec.Request, v *exec.View) int {
	g.calls++
	return g.OptimisticCertify.Victim(pending, v)
}

// TestTickDecisionsPinned pins the optimistic gate's decisions on
// hot-tick's shape: 64 rounds of BenchmarkTickAbortRestart's stream, whose
// totals — commits, aborts, wasted and granted operations and Victim
// calls — are fixed by the seeds, and so is the gate's stall census
// beside them, the certifier's Admissible probes included. A change that only makes the gate faster
// leaves every total equal. A change that alters a decision on purpose
// updates the golden values here and names the decision it changed.
func TestTickDecisionsPinned(t *testing.T) {
	const rounds = 64
	type totals struct{ committed, aborts, wasted, granted, victims int }
	want := totals{committed: 3072, aborts: 1947, wasted: 3054, granted: 13432, victims: 1947}
	wantCensus := exec.StallStats{Stalls: 1947, SoloStalls: 32, BlockerVictims: 508, DelayedReadDenials: 12812, CertifierDenials: 28242, Probes: 75403}
	s := newAbortRestartStream()
	gate := &victimCounter{OptimisticCertify: sched.NewOptimisticCertifyOver(s.mon, sched.NewRandom(1), sched.VictimYoungest)}
	var got totals
	for i := 0; i < rounds; i++ {
		res, err := s.round(gate)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		got.committed += len(res.Metrics.PerTxn)
		got.aborts += res.Metrics.Aborts
		got.wasted += res.Metrics.WastedOps
		got.granted += res.Metrics.Ticks
	}
	got.victims = gate.calls
	if got != want {
		t.Fatalf("decision totals over %d rounds = %+v, want %+v", rounds, got, want)
	}
	if census := gate.Stats().Stalls; census != wantCensus {
		t.Fatalf("stall census over %d rounds = %+v, want %+v", rounds, census, wantCensus)
	}
}
