// The -mode mvread machinery: corpus parsing and the multiversion
// read-path differential. Each case runs a generated read-write
// workload twice through the tick engine — once alone, once with
// declared read-only scan transactions served from sealed-prefix
// snapshots — and checks the bypass obligations: readers are never
// denied and never abort, the read-write projection of the mixed run
// is identical to the reader-free run, the combined spliced schedule
// passes the batch PWSR checker, and it replays value-consistently
// from the initial state. The replay is the aborted-writes oracle: an
// expunged writer's value appears in no committed schedule, so a
// snapshot that ever exposed one cannot replay.
package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"pwsr/internal/core"
	"pwsr/internal/exec"
	"pwsr/internal/gen"
	"pwsr/internal/program"
	"pwsr/internal/sched"
	"pwsr/internal/txn"
)

// mvreadCorpusDir holds the checked-in corpus for -mode mvread.
const mvreadCorpusDir = "testdata/mvread"

// mvreadCase is one parsed corpus case: the generator config of the
// read-write workload, the certification gate shape, and the begin
// ticks of the declared readers.
type mvreadCase struct {
	cfg    gen.Config
	shards int   // 0 = optimistic gate over a Monitor, N>0 = over a ShardedMonitor of N shards
	begins []int // reader begin ticks; reader ids are 101, 102, ...
}

// parseMVReadCase parses a corpus file:
//
//	conjuncts: 1
//	programs: 3
//	moves: 1
//	style: fixed
//	seed: 0
//	shards: 0
//	readers: 0 2 4 6 8 10
//
// Lines starting with '#' are comments. style is fixed | conditional |
// ordered; shards 0 selects the optimistic gate (the population where
// writers actually abort); readers lists begin ticks, one reader per
// entry.
func parseMVReadCase(data []byte) (*mvreadCase, error) {
	c := &mvreadCase{}
	seen := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("unrecognized line %q", line)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if seen[key] {
			return nil, fmt.Errorf("duplicate %q line", key)
		}
		seen[key] = true
		switch key {
		case "conjuncts", "programs", "moves", "seed", "shards":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad %s %q", key, val)
			}
			switch key {
			case "conjuncts":
				c.cfg.Conjuncts = n
			case "programs":
				c.cfg.Programs = n
			case "moves":
				c.cfg.MovesPerProgram = n
			case "seed":
				c.cfg.Seed = int64(n)
			case "shards":
				c.shards = n
			}
		case "style":
			switch val {
			case "fixed":
				c.cfg.Style = gen.StyleFixed
			case "conditional":
				c.cfg.Style = gen.StyleConditional
			case "ordered":
				c.cfg.Style = gen.StyleOrdered
			default:
				return nil, fmt.Errorf("bad style %q", val)
			}
		case "readers":
			for _, f := range strings.Fields(val) {
				n, err := strconv.Atoi(f)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("bad reader begin %q", f)
				}
				c.begins = append(c.begins, n)
			}
		default:
			return nil, fmt.Errorf("unrecognized key %q", key)
		}
	}
	if c.cfg.Conjuncts == 0 || c.cfg.Programs == 0 || c.cfg.MovesPerProgram == 0 {
		return nil, errors.New("corpus case needs conjuncts, programs, and moves")
	}
	if len(c.begins) == 0 {
		return nil, errors.New("corpus case needs at least one reader")
	}
	if c.shards > 8 {
		return nil, fmt.Errorf("shards %d out of range (0..8)", c.shards)
	}
	return c, nil
}

// mvreadScanProgram builds the read-only scan over every schema item,
// the declared-reader program of the differential.
func mvreadScanProgram(id int, items []string) *program.Program {
	var b strings.Builder
	fmt.Fprintf(&b, "program R%d {\n", id)
	for i, it := range items {
		fmt.Fprintf(&b, "  let v%d := %s;\n", i, it)
	}
	b.WriteString("}\n")
	return program.MustParse(b.String())
}

// mvreadDifferential runs one case and returns a non-empty diagnosis
// on the first broken bypass obligation (or an error for infrastructure
// failure — a stalled gate or generator problem, which the populations
// used here guarantee against).
func mvreadDifferential(c *mvreadCase) (string, error) {
	w, err := gen.Generate(c.cfg)
	if err != nil {
		return "", fmt.Errorf("generate: %w", err)
	}
	gate := func() exec.Policy {
		if c.shards > 0 {
			return sched.NewOptimisticCertifyOver(core.NewShardedMonitor(w.DataSets, c.shards), sched.NewRandom(c.cfg.Seed), nil)
		}
		return sched.NewOptimisticCertify(w.DataSets, sched.NewRandom(c.cfg.Seed), nil)
	}

	// Reader-free reference run.
	ref, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: w.Programs,
		Initial:  w.Initial,
		Policy:   gate(),
		DataSets: w.DataSets,
	})
	if err != nil {
		return "", fmt.Errorf("reference run: %w", err)
	}

	// Mixed run: the same workload plus declared readers.
	items := make([]string, 0, len(w.Initial))
	for it := range w.Initial {
		items = append(items, it)
	}
	sort.Strings(items)
	programs := make(map[int]*program.Program, len(w.Programs)+len(c.begins))
	for id, p := range w.Programs {
		programs[id] = p
	}
	readOnly := make(map[int]bool, len(c.begins))
	roBegin := make(map[int]int, len(c.begins))
	for i, begin := range c.begins {
		id := 101 + i
		programs[id] = mvreadScanProgram(id, items)
		readOnly[id] = true
		roBegin[id] = begin
	}
	res, err := exec.RunCtx(context.Background(), exec.Config{
		Programs: programs,
		Initial:  w.Initial,
		Policy:   gate(),
		DataSets: w.DataSets,
		ReadOnly: readOnly,
		ROBegin:  roBegin,
	})
	if err != nil {
		return "", fmt.Errorf("mixed run: %w", err)
	}

	// Never denied, never aborted, reads only.
	if res.Metrics.ROTxns != len(c.begins) {
		return fmt.Sprintf("ROTxns = %d, want %d", res.Metrics.ROTxns, len(c.begins)), nil
	}
	for id := range readOnly {
		if tm := res.Metrics.PerTxn[id]; tm == nil || tm.Aborts != 0 {
			return fmt.Sprintf("reader T%d aborted or missing: %+v", id, tm), nil
		}
	}

	// The read-write projection must be the reference run, exactly.
	var rw []txn.Op
	for _, o := range res.Schedule.Ops() {
		if !readOnly[o.Txn] {
			rw = append(rw, o)
		} else if o.Action != txn.ActionRead {
			return fmt.Sprintf("reader T%d issued %v", o.Txn, o), nil
		}
	}
	if got, want := txn.NewSchedule(rw...).String(), ref.Schedule.String(); got != want {
		return fmt.Sprintf("read-write projection diverged:\n  mixed: %s\n  ref:   %s", got, want), nil
	}
	if !res.Final.Equal(ref.Final) {
		return fmt.Sprintf("final state diverged: %s vs %s", res.Final, ref.Final), nil
	}

	// The combined spliced schedule must stay PWSR and replay
	// value-consistently — the aborted-writes oracle.
	if v := core.CheckPWSR(res.Schedule, w.DataSets); !v.PWSR {
		return "combined schedule not PWSR", nil
	}
	if err := res.Schedule.ConsistentValues(w.Initial); err != nil {
		return fmt.Sprintf("combined schedule replay: %v (a snapshot exposed uncommitted effects?)", err), nil
	}
	return "", nil
}

// runMVRead is -mode mvread: corpus replay first, then randomized
// cases across gate shapes, styles, and reader begin spreads. Every
// broken bypass obligation counts as a found violation (the population
// guarantees zero).
func runMVRead(trials int, baseSeed int64, verbose bool) (int, error) {
	corpus, err := filepath.Glob(filepath.Join(mvreadCorpusDir, "*.txt"))
	if err != nil {
		return 0, err
	}
	if len(corpus) == 0 {
		// Running from the repository root rather than cmd/pwsrfuzz.
		if corpus, err = filepath.Glob(filepath.Join("cmd", "pwsrfuzz", mvreadCorpusDir, "*.txt")); err != nil {
			return 0, err
		}
	}
	if len(corpus) == 0 {
		fmt.Fprintf(os.Stderr, "pwsrfuzz: warning: no mvread corpus found under %s (run from the repo root or cmd/pwsrfuzz); corpus replay skipped\n",
			mvreadCorpusDir)
	}
	found := 0
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			return 0, err
		}
		c, err := parseMVReadCase(data)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		diag, err := mvreadDifferential(c)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		if diag != "" {
			found++
			if verbose {
				fmt.Printf("%s: %s\n", path, diag)
			}
		}
	}
	if len(corpus) > 0 && found == 0 {
		fmt.Printf("corpus: %d mvread replay cases ok\n", len(corpus))
	}

	for i := 0; i < trials; i++ {
		seed := baseSeed + int64(i)
		rng := rand.New(rand.NewSource(seed))
		c := &mvreadCase{
			cfg: gen.Config{
				Conjuncts:       1 + rng.Intn(3),
				Programs:        3 + rng.Intn(2),
				MovesPerProgram: 1 + rng.Intn(2),
				Style:           gen.Style(rng.Intn(3)),
				Seed:            seed,
			},
			shards: rng.Intn(9),
		}
		for n := 2 + rng.Intn(4); n > 0; n-- {
			c.begins = append(c.begins, rng.Intn(16))
		}
		diag, err := mvreadDifferential(c)
		if err != nil {
			return 0, fmt.Errorf("seed %d: %w", seed, err)
		}
		if diag != "" {
			found++
			if verbose {
				fmt.Printf("violation at seed %d (shards=%d begins=%v):\n  %s\n", seed, c.shards, c.begins, diag)
			}
		}
	}
	return found, nil
}
