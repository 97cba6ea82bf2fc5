// Command pwsrcheck analyzes a schedule against an integrity constraint:
// it reports serializability, PWSR (Definition 2), the delayed-read
// property (Definition 5), data-access-graph acyclicity (Section 3.3),
// strong correctness (Definition 1), and which of the paper's theorems,
// if any, guarantees correctness.
//
// Usage:
//
//	pwsrcheck -conjuncts "a > 0 -> b > 0; c > 0" \
//	          -schedule "w1(a,1), r2(a,1), r2(b,-1), w2(c,-1), r1(c,-1)" \
//	          -initial "a=-1, b=-1, c=1" \
//	          [-lo -64] [-hi 64]
//
// Conjuncts are separated by semicolons and keep their grouping (use
// one conjunct "a = b & b = c" for a multi-atom conjunct). The initial
// state lists item=value pairs, each item at most once; the value
// domains for the solver default to [-64, 64] for every mentioned item,
// and -lo must not exceed -hi.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pwsr/internal/constraint"
	"pwsr/internal/core"
	"pwsr/internal/serial"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

func main() {
	var (
		conjuncts = flag.String("conjuncts", "", "semicolon-separated IC conjuncts (required)")
		schedule  = flag.String("schedule", "", "schedule in r1(a,0), w2(b,1) notation")
		initial   = flag.String("initial", "", "initial state as item=value pairs, comma separated")
		history   = flag.String("history", "", "JSON history file (alternative to -schedule/-initial)")
		lo        = flag.Int64("lo", -64, "domain lower bound for all items")
		hi        = flag.Int64("hi", 64, "domain upper bound for all items")
		verbose   = flag.Bool("v", false, "print per-conjunct and per-transaction detail")
	)
	flag.Parse()

	if *conjuncts == "" || (*history == "" && (*schedule == "" || *initial == "")) {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if *history != "" {
		err = runHistory(*conjuncts, *history, *lo, *hi, *verbose)
	} else {
		err = run(*conjuncts, *schedule, *initial, *lo, *hi, *verbose)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pwsrcheck:", err)
		os.Exit(1)
	}
}

// runHistory analyzes a JSON history file.
func runHistory(conjunctsArg, path string, lo, hi int64, verbose bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	init, s, err := txn.DecodeHistory(data)
	if err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	return analyze(conjunctsArg, s, init, lo, hi, verbose)
}

func run(conjunctsArg, scheduleArg, initialArg string, lo, hi int64, verbose bool) error {
	s, err := txn.ParseSchedule(scheduleArg)
	if err != nil {
		return fmt.Errorf("parsing schedule: %w", err)
	}
	init, err := parseState(initialArg)
	if err != nil {
		return fmt.Errorf("parsing initial state: %w", err)
	}
	return analyze(conjunctsArg, s, init, lo, hi, verbose)
}

// analyze runs every checker against the schedule and prints the
// report.
func analyze(conjunctsArg string, s *txn.Schedule, init state.DB, lo, hi int64, verbose bool) error {
	if lo > hi {
		return fmt.Errorf("empty domain: -lo %d exceeds -hi %d", lo, hi)
	}
	var srcs []string
	for _, part := range strings.Split(conjunctsArg, ";") {
		if c := strings.TrimSpace(part); c != "" {
			srcs = append(srcs, c)
		}
	}
	ic, err := constraint.ParseICFromConjuncts(srcs...)
	if err != nil {
		return fmt.Errorf("parsing conjuncts: %w", err)
	}
	if err := s.ValidateOrderEmbedding(); err != nil {
		return fmt.Errorf("schedule: %w", err)
	}

	items := ic.Items().Union(s.Ops().Items()).Union(init.Items())
	schema := state.UniformInts(lo, hi, items.Sorted()...)
	if err := schema.Validate(init); err != nil {
		return err
	}
	if err := s.ConsistentValues(init); err != nil {
		return fmt.Errorf("schedule does not replay from the initial state: %w", err)
	}

	sys := core.NewSystem(ic, schema)
	fmt.Printf("IC:        %s (disjoint conjuncts: %v)\n", ic, ic.Disjoint())
	fmt.Printf("schedule:  %s\n", s)
	fmt.Printf("initial:   %s\n", init)

	okInit, err := sys.Checker().SatisfiedBy(init)
	if err == nil {
		fmt.Printf("initial consistent: %v\n", okInit)
	}

	fmt.Printf("\nserializable (CSR):   %v\n", serial.IsCSR(s))
	pw := sys.CheckPWSR(s)
	fmt.Printf("PWSR (Definition 2):  %v\n", pw.PWSR)
	if verbose {
		for _, sr := range pw.PerSet {
			if sr.Serializable {
				fmt.Printf("  C%d over %v: serializable, order %v\n", sr.Conjunct+1, sr.Items, sr.Order)
			} else {
				fmt.Printf("  C%d over %v: NOT serializable, cycle %v\n", sr.Conjunct+1, sr.Items, sr.Cycle)
			}
		}
	}
	fmt.Printf("delayed-read (DR):    %v\n", s.IsDelayedRead())
	if v := s.FirstDRViolation(); v != nil && verbose {
		fmt.Printf("  first DR violation: %s read from unfinished writer of %s\n", v[1], v[0])
	}
	g := sys.DataAccessGraph(s)
	fmt.Printf("DAG(S, IC) acyclic:   %v  [%s]\n", g.Acyclic(), g)

	sc, err := sys.CheckStrongCorrectness(s, init)
	if err != nil {
		return err
	}
	fmt.Printf("\nfinal state:          %s\n", sc.Final)
	fmt.Printf("strongly correct:     %v\n", sc.StronglyCorrect)
	if !sc.StronglyCorrect {
		for _, reason := range sc.Violations() {
			fmt.Printf("  violation: %s\n", reason)
		}
	}
	if verbose {
		for _, tr := range sc.PerTxn {
			fmt.Printf("  read(T%d) = %s consistent=%v\n", tr.Txn, tr.Reads, tr.Consistent)
		}
	}

	verdict, err := sys.Analyze(s, core.AnalyzeOptions{})
	if err != nil {
		return err
	}
	fmt.Println("\ntheorem analysis (programs unknown; Theorem 1 not decidable):")
	for _, r := range verdict.Reasons {
		fmt.Printf("  %s\n", r)
	}
	return nil
}

// parseState parses "a=-1, b=2, name=\"x\"" into a DB.
func parseState(src string) (state.DB, error) {
	db := state.NewDB()
	for _, part := range strings.Split(src, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return nil, fmt.Errorf("malformed assignment %q", part)
		}
		item := strings.TrimSpace(part[:eq])
		raw := strings.TrimSpace(part[eq+1:])
		if item == "" || raw == "" {
			return nil, fmt.Errorf("malformed assignment %q", part)
		}
		if _, dup := db.Get(item); dup {
			return nil, fmt.Errorf("item %q assigned twice", item)
		}
		if strings.HasPrefix(raw, `"`) {
			unq, err := strconv.Unquote(raw)
			if err != nil {
				return nil, fmt.Errorf("bad string in %q: %v", part, err)
			}
			db.Set(item, state.Str(unq))
			continue
		}
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value in %q: %v", part, err)
		}
		db.Set(item, state.Int(v))
	}
	if len(db) == 0 {
		return nil, fmt.Errorf("empty initial state")
	}
	return db, nil
}
