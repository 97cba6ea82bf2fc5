package experiments

import (
	"errors"
	"fmt"
	"os"
	"testing"
)

// dumpChaosFailure writes the failing trial's plan as a JSON artifact
// next to the test binary's working directory (uploaded by the chaos
// CI job) for reading; the replay is RunChaosTrial of its seed.
func dumpChaosFailure(t *testing.T, err error) {
	t.Helper()
	var cf *ChaosFailure
	if !errors.As(err, &cf) {
		return
	}
	path := fmt.Sprintf("chaos-failed-%d.json", cf.Seed)
	if werr := os.WriteFile(path, cf.PlanJSON(), 0o644); werr != nil {
		t.Logf("could not write failing plan artifact: %v", werr)
		return
	}
	t.Logf("failing fault plan written to %s", path)
}

// TestChaosSmoke is the deterministic chaos slice that every go test
// runs, -short included: a fixed band of seeds covering every leg, fault case and outcome
// (verified by the coverage assertion), each trial lockstep-compared
// against its uninjected twin.
func TestChaosSmoke(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(1); seed <= 40; seed++ {
		rec, err := RunChaosTrial(seed)
		if err != nil {
			dumpChaosFailure(t, err)
			t.Fatal(err)
		}
		seen[rec.Leg], seen[rec.Case], seen[rec.Outcome] = true, true, true
	}
	for _, want := range append([]string{"tick", "batch", "completed", "degraded"}, chaosCases...) {
		if !seen[want] {
			t.Fatalf("smoke band never produced %q; retune the seed band", want)
		}
	}
}

// TestChaosDifferential is the ROBUST1 acceptance run: ≥100 seeded
// randomized fault plans over the full pipeline (make check runs it
// under -race at GOMAXPROCS=1 and 8). Every violated obligation dumps
// its plan as an artifact; its seed replays it.
func TestChaosDifferential(t *testing.T) {
	trials := int64(120)
	if testing.Short() {
		trials = 30
	}
	const base = int64(1000)
	for seed := base; seed < base+trials; seed++ {
		if _, err := RunChaosTrial(seed); err != nil {
			dumpChaosFailure(t, err)
			t.Fatal(err)
		}
	}
}
