// CAD/CAM long-duration transactions — the application that motivated
// PWSR (Korth, Kim, Bancilhon [11]). A designer's transaction sweeps
// several design partitions and would, under serializable locking, make
// every short transaction wait for the whole sweep. Predicate-wise
// locking releases each design's locks as soon as the designer is done
// with that design; the resulting schedules are PWSR but provably
// strongly correct (Theorem 1 — the programs are straight-line).
package main

import (
	"context"
	"fmt"
	"log"

	"pwsr"
)

func main() {
	// Three designs, each with an invariant that all its component
	// version counters stay positive.
	ic := pwsr.MustParseICFromConjuncts(
		"d1a > 0 & d1b > 0",
		"d2a > 0 & d2b > 0",
		"d3a > 0 & d3b > 0",
	)
	items := []string{"d1a", "d1b", "d2a", "d2b", "d3a", "d3b"}
	schema := pwsr.UniformInts(-64, 64, items...)
	sys := pwsr.NewSystem(ic, schema)
	sets := []pwsr.ItemSet{
		pwsr.NewItemSet("d1a", "d1b"),
		pwsr.NewItemSet("d2a", "d2b"),
		pwsr.NewItemSet("d3a", "d3b"),
	}

	initial := pwsr.Ints(map[string]int64{
		"d1a": 1, "d1b": 2, "d2a": 3, "d2b": 1, "d3a": 2, "d3b": 2,
	})

	// The designer sweeps all three designs; two short transactions
	// each touch one component of one design.
	designer := pwsr.MustParseProgram(`program Designer {
		d1a := abs(d1a) + 1;
		d1b := abs(d1b) + 1;
		d2a := abs(d2a) + 1;
		d2b := abs(d2b) + 1;
		d3a := abs(d3a) + 1;
		d3b := abs(d3b) + 1;
	}`)
	short1 := pwsr.MustParseProgram(`program Short1 { d1a := abs(d1a) + 5; }`)
	short2 := pwsr.MustParseProgram(`program Short2 { d3b := abs(d3b) + 5; }`)
	programs := map[int]*pwsr.Program{1: designer, 2: short1, 3: short2}

	run := func(name string, policy pwsr.Policy) {
		res, err := pwsr.Run(context.Background(), pwsr.RunConfig{
			Programs: programs,
			Initial:  initial,
			Policy:   policy,
			DataSets: sets,
		})
		if err != nil {
			log.Fatal(err)
		}
		sc, err := sys.CheckStrongCorrectness(res.Schedule, initial)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n", name)
		fmt.Printf("  serializable=%v  PWSR=%v  strongly-correct=%v\n",
			pwsr.IsCSR(res.Schedule), sys.CheckPWSR(res.Schedule).PWSR, sc.StronglyCorrect)
		for _, id := range []int{2, 3} {
			m := res.Metrics.PerTxn[id]
			fmt.Printf("  short txn %d: finished at tick %d after waiting %d ticks\n",
				id, m.End, m.Waits)
		}
		fmt.Println()
	}

	fmt.Println("CAD/CAM: one long designer transaction vs two short transactions")
	fmt.Println()
	run("Conservative strict 2PL (serializable)", pwsr.NewC2PL())
	run("Predicate-wise 2PL (PWSR — Theorem 1 guarantees correctness)", pwsr.NewPW2PL())

	fmt.Println("Under predicate-wise locking the short transactions stop waiting for")
	fmt.Println("the whole sweep: the designer releases each design as it finishes it.")
	fmt.Println("Run `go run ./cmd/pwsrbench -section perf` for the full sweep (PERF1).")
}
