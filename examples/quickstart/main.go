// Quickstart: the paper's Examples 1 and 2 end to end — define an
// integrity constraint, run transaction programs under a scripted
// interleaving, and check PWSR, strong correctness, and the theorems.
package main

import (
	"context"
	"fmt"
	"log"

	"pwsr"
)

func main() {
	// ------------------------------------------------------------------
	// Example 1 (notation): two programs, no integrity constraint.
	// ------------------------------------------------------------------
	tp1 := pwsr.MustParseProgram(`program TP1 {
		if (a >= 0) { b := c; } else { c := d; }
	}`)
	tp2 := pwsr.MustParseProgram(`program TP2 {
		d := a;
	}`)
	initial := pwsr.Ints(map[string]int64{"a": 0, "b": 10, "c": 5, "d": 10})

	res, err := pwsr.Run(context.Background(), pwsr.RunConfig{
		Programs: map[int]*pwsr.Program{1: tp1, 2: tp2},
		Initial:  initial,
		Policy:   pwsr.NewScript(2, 1, 2, 1, 1),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Example 1")
	fmt.Println("  schedule:", res.Schedule)
	t1 := res.Schedule.Txn(1)
	fmt.Println("  T1      :", t1)
	fmt.Println("  RS(T1)  :", t1.RS(), " read(T1):", t1.ReadState())
	fmt.Println("  WS(T1)  :", t1.WS(), " write(T1):", t1.WriteState())
	fmt.Println("  struct  :", t1.Struct())
	fmt.Println("  final   :", res.Final)
	fmt.Println()

	// ------------------------------------------------------------------
	// Example 2: a PWSR schedule that destroys consistency.
	// ------------------------------------------------------------------
	ic := pwsr.MustParseICFromConjuncts("a > 0 -> b > 0", "c > 0")
	schema := pwsr.UniformInts(-20, 20, "a", "b", "c")
	sys := pwsr.NewSystem(ic, schema)

	ex2tp1 := pwsr.MustParseProgram(`program TP1 {
		a := 1;
		if (c > 0) { b := abs(b) + 1; }
	}`)
	ex2tp2 := pwsr.MustParseProgram(`program TP2 {
		if (a > 0) { c := b; }
	}`)
	start := pwsr.Ints(map[string]int64{"a": -1, "b": -1, "c": 1})

	res2, err := pwsr.Run(context.Background(), pwsr.RunConfig{
		Programs: map[int]*pwsr.Program{1: ex2tp1, 2: ex2tp2},
		Initial:  start,
		Policy:   pwsr.NewScript(1, 2, 2, 2, 1),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Example 2")
	fmt.Println("  IC      :", ic)
	fmt.Println("  schedule:", res2.Schedule)
	fmt.Println("  PWSR    :", sys.CheckPWSR(res2.Schedule).PWSR)
	fmt.Println("  CSR     :", pwsr.IsCSR(res2.Schedule))

	sc, err := sys.CheckStrongCorrectness(res2.Schedule, start)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  strongly correct:", sc.StronglyCorrect)
	for _, v := range sc.Violations() {
		fmt.Println("    violation:", v)
	}

	// Why did it fail? Ask the theorem analyzer.
	verdict, err := sys.Analyze(res2.Schedule, pwsr.AnalyzeOptions{
		Programs: map[int]*pwsr.Program{1: ex2tp1, 2: ex2tp2},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range verdict.Reasons {
		fmt.Println("  analysis:", r)
	}
	fmt.Println()

	// ------------------------------------------------------------------
	// The repair (Section 3.1): balance TP1 into fixed structure. Under
	// TP1' the bad interleaving is simply no longer PWSR, so the PWSR
	// scheduler would reject it — Theorem 1 in action.
	// ------------------------------------------------------------------
	fixed, err := pwsr.Balance(ex2tp1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Balanced TP1 (the paper's TP1'):")
	fmt.Print(fixed)

	res3, err := pwsr.Run(context.Background(), pwsr.RunConfig{
		Programs: map[int]*pwsr.Program{1: fixed, 2: ex2tp2},
		Initial:  start,
		Policy:   pwsr.NewScript(1, 2, 2, 2, 1, 1, 1),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  same interleaving:", res3.Schedule)
	fmt.Println("  PWSR now?        :", sys.CheckPWSR(res3.Schedule).PWSR,
		"(no — the violating interleaving is excluded by the criterion)")
}
