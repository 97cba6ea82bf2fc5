// The -mode compact machinery: lifecycle-script parsing, the
// four-way commit/compact replay differential, and the randomized
// script generator. FuzzCommitCompact (main_test.go) fuzzes
// parseCompactCase + compactDifferential over the same corpus.
package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"pwsr/internal/core"
	"pwsr/internal/state"
	"pwsr/internal/txn"
)

// compactCorpusDir holds the checked-in lifecycle corpus for -mode
// compact: each file carries a conjunct partition and a script of
// operations interleaved with commit/retract/compact commands.
const compactCorpusDir = "testdata/compact"

// compactStep is one parsed script step.
type compactStep struct {
	kind string // "observe" | "commit" | "retract" | "compact"
	op   txn.Op
	txn  int
}

// parseCompactCase parses a lifecycle corpus file:
//
//	partition: a b | c d
//	script: w1(a, 1); r2(a, 1); commit 1; compact; retract 2
//
// Script steps are ';'-separated: an operation in the usual schedule
// notation, `commit N`, `retract N`, or `compact`. Several script:
// lines concatenate. The lifecycle contract is validated statically —
// a committed transaction must not operate or be retracted again — so
// hostile fuzz inputs are rejected instead of tripping the monitors'
// contract panics.
func parseCompactCase(data []byte) ([]state.ItemSet, []compactStep, error) {
	var partition []state.ItemSet
	var steps []compactStep
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "partition:"):
			for _, ds := range strings.Split(strings.TrimPrefix(line, "partition:"), "|") {
				partition = append(partition, state.NewItemSet(strings.Fields(ds)...))
			}
		case strings.HasPrefix(line, "script:"):
			for _, tok := range strings.Split(strings.TrimPrefix(line, "script:"), ";") {
				tok = strings.TrimSpace(tok)
				if tok == "" {
					continue
				}
				switch {
				case tok == "compact":
					steps = append(steps, compactStep{kind: "compact"})
				case strings.HasPrefix(tok, "commit ") || strings.HasPrefix(tok, "retract "):
					var kind string
					var id int
					if _, err := fmt.Sscanf(tok, "%s %d", &kind, &id); err != nil {
						return nil, nil, fmt.Errorf("bad script step %q", tok)
					}
					steps = append(steps, compactStep{kind: kind, txn: id})
				default:
					s, err := txn.ParseSchedule(tok)
					if err != nil {
						return nil, nil, fmt.Errorf("bad script step %q: %w", tok, err)
					}
					if s.Len() != 1 {
						return nil, nil, fmt.Errorf("script step %q is not a single operation", tok)
					}
					steps = append(steps, compactStep{kind: "observe", op: s.Ops()[0]})
				}
			}
		default:
			return nil, nil, fmt.Errorf("unrecognized line %q", line)
		}
	}
	if partition == nil || steps == nil {
		return nil, nil, errors.New("corpus case needs a partition and a script")
	}
	committed := make(map[int]bool)
	for _, st := range steps {
		switch st.kind {
		case "observe":
			if committed[st.op.Txn] {
				return nil, nil, fmt.Errorf("lifecycle contract: T%d operates after commit", st.op.Txn)
			}
		case "retract":
			if committed[st.txn] {
				return nil, nil, fmt.Errorf("lifecycle contract: T%d retracted after commit", st.txn)
			}
		case "commit":
			committed[st.txn] = true
		}
	}
	return partition, steps, nil
}

// compactDifferential replays a lifecycle script through the
// compacting Monitor, the ReferenceMonitor rebuild spec, and an
// uncompacted Monitor (commits and compactions skipped), all in
// lockstep with automatic compaction disabled so every pass is
// explicit. It returns a non-empty diagnosis on the first
// disagreement: verdict nil-ness or flagged conjunct/operation, op
// counts, live populations, lifecycle counters, or a compacted
// conflict edge the uncompacted monitor lacks.
func compactDifferential(partition []state.ItemSet, steps []compactStep) string {
	cm := core.NewMonitor(partition)
	cm.SetAutoCompact(0)
	ref := core.NewReferenceMonitor(partition)
	un := core.NewMonitor(partition)
	un.SetAutoCompact(0)
	for _, st := range steps {
		switch st.kind {
		case "observe":
			vCm := cm.Observe(st.op)
			vRef := ref.Observe(st.op)
			vUn := un.Observe(st.op)
			if (vCm == nil) != (vRef == nil) || (vCm == nil) != (vUn == nil) {
				return fmt.Sprintf("verdict split at %v: compacting %v, reference %v, uncompacted %v",
					st.op, vCm, vRef, vUn)
			}
			if vCm != nil {
				if vCm.Conjunct != vRef.Conjunct || vCm.Op != vRef.Op {
					return fmt.Sprintf("flagged C%d %v (compacting) vs C%d %v (reference)",
						vCm.Conjunct, vCm.Op, vRef.Conjunct, vRef.Op)
				}
				return "" // sticky; the remaining script is moot
			}
		case "commit":
			cm.Commit(st.txn)
			ref.Commit(st.txn)
		case "retract":
			cm.Retract(st.txn)
			ref.Retract(st.txn)
			un.Retract(st.txn)
		case "compact":
			nCm := cm.Compact()
			if nRef := ref.Compact(); nRef != nCm {
				return fmt.Sprintf("Compact reclaimed %d (compacting) vs %d (reference)", nCm, nRef)
			}
		}
		if cm.Ops() != ref.Ops() || cm.Ops() != un.Ops() {
			return fmt.Sprintf("ops %d (compacting) vs %d (reference) vs %d (uncompacted)",
				cm.Ops(), ref.Ops(), un.Ops())
		}
		if cm.LiveTxns() != ref.LiveTxns() {
			return fmt.Sprintf("live %d (compacting) vs %d (reference)", cm.LiveTxns(), ref.LiveTxns())
		}
		if un.LiveTxns() < cm.LiveTxns() {
			return fmt.Sprintf("uncompacted live %d below compacting live %d", un.LiveTxns(), cm.LiveTxns())
		}
		if cs, rs := cm.CompactStats(), ref.CompactStats(); cs != rs {
			return fmt.Sprintf("stats %+v (compacting) vs %+v (reference)", cs, rs)
		}
		for e := range partition {
			unEdges := un.ConflictEdges(e)
			for _, edge := range cm.ConflictEdges(e) {
				if !slices.Contains(unEdges, edge) {
					return fmt.Sprintf("conjunct %d: compacted edge %v absent from the uncompacted monitor", e, edge)
				}
			}
		}
	}
	return ""
}

// randomCompactScript generates a contract-respecting lifecycle script
// (the pwsrfuzz twin of the core package's differential generator).
func randomCompactScript(rng *rand.Rand, steps, txns int, items []string) []compactStep {
	committed := make([]bool, txns+1)
	active := func() int {
		for tries := 0; tries < 4*txns; tries++ {
			if id := 1 + rng.Intn(txns); !committed[id] {
				return id
			}
		}
		return 0
	}
	var script []compactStep
	for len(script) < steps {
		switch r := rng.Intn(100); {
		case r < 68:
			id := active()
			if id == 0 {
				return script
			}
			o := txn.R(id, items[rng.Intn(len(items))], int64(rng.Intn(8)))
			if rng.Intn(2) == 0 {
				o = txn.W(o.Txn, o.Entity, int64(rng.Intn(8)))
			}
			script = append(script, compactStep{kind: "observe", op: o})
		case r < 80:
			if id := active(); id != 0 {
				committed[id] = true
				script = append(script, compactStep{kind: "commit", txn: id})
			}
		case r < 88:
			if id := active(); id != 0 {
				script = append(script, compactStep{kind: "retract", txn: id})
			}
		default:
			script = append(script, compactStep{kind: "compact"})
		}
	}
	return script
}

// runCompact is -mode compact: corpus replay first, then randomized
// lifecycle scripts over random partitions. Every differential
// disagreement counts as a found violation (the population guarantees
// zero).
func runCompact(trials int, baseSeed int64, verbose bool) (int, error) {
	corpus, err := filepath.Glob(filepath.Join(compactCorpusDir, "*.txt"))
	if err != nil {
		return 0, err
	}
	if len(corpus) == 0 {
		// Running from the repository root rather than cmd/pwsrfuzz.
		if corpus, err = filepath.Glob(filepath.Join("cmd", "pwsrfuzz", compactCorpusDir, "*.txt")); err != nil {
			return 0, err
		}
	}
	if len(corpus) == 0 {
		fmt.Fprintf(os.Stderr, "pwsrfuzz: warning: no compact corpus found under %s (run from the repo root or cmd/pwsrfuzz); corpus replay skipped\n",
			compactCorpusDir)
	}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			return 0, err
		}
		partition, steps, err := parseCompactCase(data)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		if diag := compactDifferential(partition, steps); diag != "" {
			return 0, fmt.Errorf("%s: %s", path, diag)
		}
	}
	if len(corpus) > 0 {
		fmt.Printf("corpus: %d lifecycle replay cases ok\n", len(corpus))
	}

	found := 0
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewSource(baseSeed + int64(i)))
		nItems := 1 + rng.Intn(6)
		items := make([]string, nItems)
		for j := range items {
			items[j] = fmt.Sprintf("x%d", j)
		}
		l := 1 + rng.Intn(3)
		partition := make([]state.ItemSet, l)
		for e := range partition {
			partition[e] = state.NewItemSet()
		}
		for _, it := range items {
			if rng.Intn(6) == 0 {
				continue // unconstrained item
			}
			partition[rng.Intn(l)].Add(it)
			if rng.Intn(4) == 0 {
				partition[rng.Intn(l)].Add(it) // overlap
			}
		}
		script := randomCompactScript(rng, 20+rng.Intn(80), 2+rng.Intn(5), items)
		if diag := compactDifferential(partition, script); diag != "" {
			found++
			if verbose {
				fmt.Printf("divergence at seed %d: %s\n", baseSeed+int64(i), diag)
			}
		}
	}
	return found, nil
}
