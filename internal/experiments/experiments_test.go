package experiments

import (
	"strings"
	"testing"

	"pwsr/internal/gen"
	"pwsr/internal/sched"
)

func TestTheorem1Validation(t *testing.T) {
	c, err := RunValidation(Theorem1, 60, 100)
	if err != nil {
		t.Fatal(err)
	}
	if c.HypothesisMet == 0 {
		t.Fatal("no PWSR trials; campaign vacuous")
	}
	if c.Violations != 0 {
		t.Fatalf("Theorem 1 violated on seeds %v", c.ViolationSeeds)
	}
	if !c.Passed() {
		t.Fatal("campaign should pass")
	}
}

func TestTheorem2Validation(t *testing.T) {
	c, err := RunValidation(Theorem2, 60, 200)
	if err != nil {
		t.Fatal(err)
	}
	if c.HypothesisMet == 0 {
		t.Fatal("no PWSR∧DR trials; campaign vacuous")
	}
	if c.Violations != 0 {
		t.Fatalf("Theorem 2 violated on seeds %v", c.ViolationSeeds)
	}

	// The one-pair family behind the same delayed-read gate: the
	// necessity campaigns' population, with the hypothesis restored.
	one := &Campaign{Positive: true}
	for seed := int64(200); seed < 260; seed++ {
		w, err := gen.Example2Family(1, seed)
		if err != nil {
			t.Fatal(err)
		}
		o, err := runTrial(w, &sched.DelayedRead{Inner: sched.NewRandom(seed)})
		if err != nil {
			t.Fatal(err)
		}
		one.observe(Theorem2, o, seed)
	}
	if one.HypothesisMet == 0 {
		t.Fatal("no PWSR∧DR trials in the one-pair family; population vacuous")
	}
	if one.Violations != 0 {
		t.Fatalf("Theorem 2 violated by the one-pair family on seeds %v", one.ViolationSeeds)
	}
	t.Logf("one-pair family: %d of 60 hypothesis-met, %d stalls", one.HypothesisMet, one.Stalls)
}

func TestTheorem3Validation(t *testing.T) {
	c, err := RunValidation(Theorem3, 60, 300)
	if err != nil {
		t.Fatal(err)
	}
	if c.HypothesisMet == 0 {
		t.Fatal("no PWSR∧acyclic trials; campaign vacuous")
	}
	if c.Violations != 0 {
		t.Fatalf("Theorem 3 violated on seeds %v", c.ViolationSeeds)
	}
}

func TestNecessityCampaignsFindViolations(t *testing.T) {
	for _, th := range []Theorem{Theorem1, Theorem2, Theorem3} {
		c, err := RunNecessity(th, 200, 400)
		if err != nil {
			t.Fatal(err)
		}
		if c.Violations == 0 {
			t.Fatalf("theorem %d necessity: no violations found in %d trials (hyp-met %d)",
				th, c.Trials, c.HypothesisMet)
		}
		if !c.Passed() {
			t.Fatalf("theorem %d necessity campaign should pass", th)
		}
		// The violating population must be nonserializable PWSR — the
		// interesting class.
		if c.NonSerializablePWSR == 0 {
			t.Fatalf("theorem %d necessity: no nonserializable PWSR schedules seen", th)
		}
	}
}

func TestRepairedNecessityHasNoViolations(t *testing.T) {
	c, err := RunRepairedNecessity(120, 500)
	if err != nil {
		t.Fatal(err)
	}
	if c.HypothesisMet == 0 {
		t.Fatal("vacuous repaired campaign")
	}
	if c.Violations != 0 {
		t.Fatalf("balanced programs still violated on seeds %v", c.ViolationSeeds)
	}
}

func TestCampaignTableRender(t *testing.T) {
	c, err := RunValidation(Theorem1, 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab := CampaignTable("demo", c)
	out := tab.Render()
	if !strings.Contains(out, "T1:") || !strings.Contains(out, "PASS") {
		t.Fatalf("Render:\n%s", out)
	}
}

func TestExamplesTable(t *testing.T) {
	tab, verdicts, err := ExamplesTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 4 {
		t.Fatalf("verdicts = %d", len(verdicts))
	}
	byName := map[string]ExampleVerdict{}
	for _, v := range verdicts {
		byName[v.Name] = v
	}
	e2 := byName["Example 2"]
	if !e2.PWSR || e2.StronglyCorrect || e2.FixedStructure || e2.DR || e2.DAGAcyclic {
		t.Fatalf("Example 2 verdict = %+v", e2)
	}
	e5 := byName["Example 5"]
	if !e5.PWSR || !e5.DR || !e5.DAGAcyclic || !e5.FixedStructure || e5.Disjoint || e5.StronglyCorrect {
		t.Fatalf("Example 5 verdict = %+v", e5)
	}
	if !strings.Contains(tab.Render(), "Example 5") {
		t.Fatal("table missing Example 5")
	}
}

func TestFigures(t *testing.T) {
	figs := Figures()
	if len(figs) != 7 {
		t.Fatalf("figures = %d", len(figs))
	}
	joined := strings.Join(figs, "\n")
	for _, banned := range []string{"FAILED", "ERROR", "UNEXPECTED"} {
		if strings.Contains(joined, banned) {
			t.Fatalf("figure computation failed:\n%s", joined)
		}
	}
	for i, want := range []string{
		"Lemma 1", "Lemma 2", "Definition 4", "Lemma 3", "Lemmas 4/5", "Lemma 6", "Lemma 7",
	} {
		if !strings.Contains(figs[i], want) {
			t.Fatalf("figure %d missing %q:\n%s", i+1, want, figs[i])
		}
	}
}
