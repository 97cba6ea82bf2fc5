// Multidatabase (MDBS) autonomy — the paper's Section 4 application
// (Breitbart, Garcia-Molina, Silberschatz [4]). Each site is an
// autonomous DBMS with purely local integrity constraints and its own
// local serializability. With NO global concurrency control, the global
// schedule is exactly PWSR over the per-site partition ("local
// serializability", LSR). Because the transfer programs are straight
// line, Theorem 1 guarantees global consistency — the formal license
// for running multidatabases without a global lock manager.
package main

import (
	"context"
	"fmt"
	"log"

	"pwsr"
)

func main() {
	// Two bank sites; each conserves the total of its accounts.
	ic := pwsr.MustParseICFromConjuncts(
		"s1a + s1b = 10",
		"s2a + s2b = 10",
	)
	schema := pwsr.UniformInts(-64, 64, "s1a", "s1b", "s2a", "s2b")
	sys := pwsr.NewSystem(ic, schema)
	sites := []pwsr.ItemSet{
		pwsr.NewItemSet("s1a", "s1b"),
		pwsr.NewItemSet("s2a", "s2b"),
	}
	initial := pwsr.Ints(map[string]int64{"s1a": 4, "s1b": 6, "s2a": 7, "s2b": 3})

	// Two global transactions transferring at both sites, and one local
	// transaction per site.
	global1 := pwsr.MustParseProgram(`program Global1 {
		s1a := s1a - 2; s1b := s1b + 2;
		s2a := s2a - 1; s2b := s2b + 1;
	}`)
	global2 := pwsr.MustParseProgram(`program Global2 {
		s1a := s1a + 3; s1b := s1b - 3;
		s2a := s2a + 4; s2b := s2b - 4;
	}`)
	local1 := pwsr.MustParseProgram(`program Local1 { s1a := s1a - 1; s1b := s1b + 1; }`)
	local2 := pwsr.MustParseProgram(`program Local2 { s2a := s2a - 2; s2b := s2b + 2; }`)
	programs := map[int]*pwsr.Program{1: global1, 2: global2, 3: local1, 4: local2}

	fmt.Println("MDBS: two autonomous sites, two global and two local transactions")
	fmt.Println()

	// With no global coordination, the sites see the global
	// transactions in whatever order they arrive: site 1 executes
	// Global1 before Global2, site 2 the other way around. Each site's
	// local schedule is serial — yet the global schedule has a
	// conflict cycle. This scripted run reproduces that arrival order;
	// sched-level autonomy (per-site locking) produces such orders by
	// itself.
	res, err := pwsr.Run(context.Background(), pwsr.RunConfig{
		Programs: programs,
		Initial:  initial,
		// Global1's site-1 transfer, then Global2 runs both of its
		// transfers, then Global1 finishes at site 2, then the locals.
		Policy:   pwsr.NewScript(1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 3, 3, 3, 3, 4, 4, 4, 4),
		DataSets: sites,
	})
	if err != nil {
		log.Fatal(err)
	}
	lsr := sys.CheckPWSR(res.Schedule)
	sc, err := sys.CheckStrongCorrectness(res.Schedule, initial)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("local-only control (no global lock manager):")
	fmt.Println("  locally serializable (LSR = PWSR):", lsr.PWSR)
	for _, sr := range lsr.PerSet {
		fmt.Printf("    site %d serialization order: %v\n", sr.Conjunct+1, sr.Order)
	}
	fmt.Println("  globally serializable:            ", pwsr.IsCSR(res.Schedule))
	fmt.Println("  strongly correct (Theorem 1):     ", sc.StronglyCorrect)
	fmt.Println("  final state:                      ", res.Final)
	fmt.Println()

	// Sanity: both sites still conserve their totals.
	sum := func(a, b string) int64 {
		return res.Final.MustGet(a).AsInt() + res.Final.MustGet(b).AsInt()
	}
	fmt.Printf("  site totals: s1 = %d, s2 = %d (both must be 10)\n",
		sum("s1a", "s1b"), sum("s2a", "s2b"))
	fmt.Println()
	fmt.Println("Run `go run ./cmd/pwsrbench -section perf` for the scaling study (PERF2).")
}
