package experiments

import (
	"errors"
	"fmt"
	"os"
	"testing"
)

// dumpChaosFailure writes the failing trial's plan as a JSON artifact
// next to the test binary's working directory (uploaded by the chaos
// CI job) and returns the path.
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

// TestChaosSmoke is the deterministic chaos slice `make check` runs:
// a fixed band of seeds covering every leg, fault case and outcome
// (verified by the coverage assertion), each trial lockstep-compared
// against its uninjected twin.
func TestChaosSmoke(t *testing.T) {
	outcomes := map[string]bool{}
	for seed := int64(1); seed <= 40; seed++ {
		rec, err := RunChaosTrial(seed)
		if err != nil {
			dumpChaosFailure(t, err)
			t.Fatal(err)
		}
		outcomes[rec.Outcome] = true
	}
	for _, want := range []string{"completed", "degraded"} {
		if !outcomes[want] {
			t.Fatalf("smoke band never produced outcome %q; retune the seed band", want)
		}
	}
}

// TestChaosDifferential is the ROBUST1 acceptance run: ≥100 seeded
// randomized fault plans over the full pipeline (make chaos runs it
// under -race at GOMAXPROCS=1 and 8). Every violated obligation dumps
// its plan as a replayable artifact.
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

// TestChaosStudyAggregates pins the pwsrbench section's plumbing: the
// study runs clean over a small band and the table accounts every
// trial.
func TestChaosStudyAggregates(t *testing.T) {
	tab, records, err := ChaosStudy(12, 1)
	if err != nil {
		dumpChaosFailure(t, err)
		t.Fatal(err)
	}
	if len(records) != 12 {
		t.Fatalf("study returned %d records, want 12", len(records))
	}
	total := 0
	for _, rec := range records {
		if rec.Outcome == "" {
			t.Fatalf("record without outcome: %+v", rec)
		}
		total++
	}
	if tab.Title == "" || len(tab.Rows) != 2 {
		t.Fatalf("malformed study table: %+v", tab)
	}
}
