package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzCommitCompact fuzzes the transaction-lifecycle differential at
// the corpus-file granularity: any parseable, contract-respecting
// partition+script input must replay identically through the
// compacting Monitor, the ReferenceMonitor rebuild spec, and the
// uncompacted Monitor. The checked-in testdata/compact corpus seeds
// the fuzzer, so plain `go test` replays the named scenarios
// (commit-before-violation,
// compact-across-retract, watermark-at-shard-boundary,
// pinned-by-live-ancestor) as regression cases.
func FuzzCommitCompact(f *testing.F) {
	corpus, err := filepath.Glob(filepath.Join(compactCorpusDir, "*.txt"))
	if err != nil {
		f.Fatal(err)
	}
	if len(corpus) == 0 {
		f.Fatalf("no seed corpus under %s", compactCorpusDir)
	}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip("oversized input")
		}
		partition, steps, err := parseCompactCase(data)
		if err != nil {
			t.Skip() // unparseable or contract-violating input
		}
		items := 0
		for _, d := range partition {
			items += len(d)
		}
		if len(partition) > 16 || items > 64 || len(steps) > 256 {
			t.Skip("oversized case")
		}
		if diag := compactDifferential(partition, steps); diag != "" {
			t.Fatalf("lifecycle differential: %s\ninput:\n%s", diag, data)
		}
	})
}

// TestCompactCorpusReplays pins the corpus through the -mode compact
// entry point itself (glob fallback included), so the command-level
// harness stays wired.
func TestCompactCorpusReplays(t *testing.T) {
	found, err := runCompact(25, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if found != 0 {
		t.Fatalf("%d differential divergences in a population that guarantees zero", found)
	}
}

// FuzzMVRead fuzzes the multiversion read-path differential at the
// corpus-file granularity: any parseable case — generator config, gate
// shape, reader begin ticks — must keep every bypass obligation
// (readers never denied or aborted, read-write projection identical to
// the reader-free run, combined schedule PWSR and value-consistent).
// The checked-in testdata/mvread corpus seeds the fuzzer, so plain
// `go test` replays the named scenarios as regression cases.
func FuzzMVRead(f *testing.F) {
	corpus, err := filepath.Glob(filepath.Join(mvreadCorpusDir, "*.txt"))
	if err != nil {
		f.Fatal(err)
	}
	if len(corpus) == 0 {
		f.Fatalf("no seed corpus under %s", mvreadCorpusDir)
	}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip("oversized input")
		}
		c, err := parseMVReadCase(data)
		if err != nil {
			t.Skip() // unparseable input
		}
		if c.cfg.Conjuncts > 4 || c.cfg.Programs > 6 || c.cfg.MovesPerProgram > 4 || len(c.begins) > 8 {
			t.Skip("oversized case")
		}
		diag, err := mvreadDifferential(c)
		if err != nil {
			if strings.Contains(err.Error(), "generate:") {
				t.Skip() // config the workload generator rejects
			}
			t.Fatalf("mvread differential: %v\ninput:\n%s", err, data)
		}
		if diag != "" {
			t.Fatalf("mvread differential: %s\ninput:\n%s", diag, data)
		}
	})
}

// TestMVReadCorpusReplays pins the corpus through the -mode mvread
// entry point itself (glob fallback included), so the command-level
// harness stays wired.
func TestMVReadCorpusReplays(t *testing.T) {
	found, err := runMVRead(25, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if found != 0 {
		t.Fatalf("%d bypass-obligation violations in a population that guarantees zero", found)
	}
}

// TestCancelCorpusReplays pins the corpus through the -mode cancel
// entry point itself (glob fallback included), so the command-level
// harness stays wired and the checked-in cases keep replaying clean.
func TestCancelCorpusReplays(t *testing.T) {
	if _, err := runCancel(10, 7, false); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsUnknownMode pins the argument checks: an unknown mode
// (the deleted sharded mode included) fails before any trial, even when
// there are no trials to run, and so does a negative trial count.
func TestRunRejectsUnknownMode(t *testing.T) {
	for _, c := range []struct {
		mode   string
		trials int
	}{
		{"bogus", 0},
		{"sharded", 0},
		{"fixed", -5},
	} {
		if _, err := run(c.mode, c.trials, 7, false); err == nil {
			t.Errorf("run(%q, %d, 7, false) succeeded, want an error", c.mode, c.trials)
		}
	}
}
