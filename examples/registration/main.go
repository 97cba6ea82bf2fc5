// University registration — the strong-correctness example of Section
// 2.3. Each course has a capacity constraint, each student a credit
// record; constraints never span relations. Registration transactions
// insert into several course relations and finally update the student's
// hours. Schedules serializable with respect to the *subtransactions*
// (one per relation) — i.e. PWSR over the per-relation partition — need
// not be serializable with respect to whole registrations, yet preserve
// every constraint, because each subtransaction updates a single
// relation and preserves that relation's constraint.
//
// Three students register so their relation-level serialization orders
// form a cycle (Ann before Jim on cs101, Jim before Bob on cs303, Bob
// before Ann on cs202): the global schedule is NOT serializable, every
// per-relation projection is — and the checkers verify strong
// correctness.
package main

import (
	"context"
	"fmt"
	"log"

	"pwsr"
)

func main() {
	ic := pwsr.MustParseICFromConjuncts(
		"cs101 >= 0 & cs101 <= 3",
		"cs202 >= 0 & cs202 <= 3",
		"cs303 >= 0 & cs303 <= 3",
		"hAnn >= 0",
		"hJim >= 0",
		"hBob >= 0",
	)
	items := []string{"cs101", "cs202", "cs303", "hAnn", "hJim", "hBob"}
	schema := pwsr.UniformInts(0, 64, items...)
	sys := pwsr.NewSystem(ic, schema)
	partition := []pwsr.ItemSet{
		pwsr.NewItemSet("cs101"),
		pwsr.NewItemSet("cs202"),
		pwsr.NewItemSet("cs303"),
		pwsr.NewItemSet("hAnn"),
		pwsr.NewItemSet("hJim"),
		pwsr.NewItemSet("hBob"),
	}
	initial := pwsr.Ints(map[string]int64{
		"cs101": 0, "cs202": 0, "cs303": 0, "hAnn": 0, "hJim": 0, "hBob": 0,
	})

	// A registration = per-course subtransactions (insert if not full)
	// plus a final hours update. Credits accumulate in a local.
	ann := pwsr.MustParseProgram(`program RegisterAnn {
		let credits := 0;
		if (cs101 < 3) { cs101 := cs101 + 1; credits := credits + 3; }
		if (cs202 < 3) { cs202 := cs202 + 1; credits := credits + 3; }
		hAnn := hAnn + credits;
	}`)
	jim := pwsr.MustParseProgram(`program RegisterJim {
		if (cs101 < 3) { cs101 := cs101 + 1; }
		if (cs303 < 3) { cs303 := cs303 + 1; }
		hJim := hJim + 6;
	}`)
	bob := pwsr.MustParseProgram(`program RegisterBob {
		if (cs202 < 3) { cs202 := cs202 + 1; }
		if (cs303 < 3) { cs303 := cs303 + 1; }
		hBob := hBob + 6;
	}`)
	programs := map[int]*pwsr.Program{1: ann, 2: jim, 3: bob}

	fmt.Println("Registration (Section 2.3): per-relation constraints, interleaved registrations")
	fmt.Println()

	// The cyclic arrival order: Bob inserts into cs202 first, Ann does
	// cs101 then cs202, Jim does cs101 then cs303, Bob finishes with
	// cs303 and his hours.
	// Per-op grants (reads and writes both count; all courses start
	// empty so every conditional fires):
	script := []int{
		3, 3, // Bob: r/w cs202
		1, 1, 1, 1, 1, 1, // Ann: r/w cs101, r/w cs202, r/w hAnn
		2, 2, 2, 2, 2, 2, // Jim: r/w cs101, r/w cs303, r/w hJim
		3, 3, 3, 3, // Bob: r/w cs303, r/w hBob
	}
	res, err := pwsr.Run(context.Background(), pwsr.RunConfig{
		Programs: programs,
		Initial:  initial,
		Policy:   pwsr.NewScript(script...),
		DataSets: partition,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("schedule:", res.Schedule)
	fmt.Println()

	rep := sys.CheckPWSR(res.Schedule)
	sc, err := sys.CheckStrongCorrectness(res.Schedule, initial)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("PWSR over relations:   ", rep.PWSR)
	for _, sr := range rep.PerSet {
		if len(sr.Order) > 1 {
			fmt.Printf("  relation %v order: %v\n", sr.Items, sr.Order)
		}
	}
	fmt.Println("globally serializable: ", pwsr.IsCSR(res.Schedule),
		"(the registrations form a cycle)")
	fmt.Println("strongly correct:      ", sc.StronglyCorrect)
	fmt.Println("final state:           ", res.Final)
	fmt.Println()
	fmt.Println("No capacity exceeded, hours all recorded — the §2.3 claim, verified.")
	fmt.Println("(At subtransaction granularity each per-relation insert is a straight-")
	fmt.Println("line transaction, so Theorem 1 covers the subtransaction schedule.)")
}
