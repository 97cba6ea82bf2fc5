package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsBadArgs pins the argument check: an unknown section —
// including the deleted "parallel", "hotpath" and "chaos" — -out with
// a section that writes no records, and a negative trial count fail
// before anything runs: no file is written.
func TestRunRejectsBadArgs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "records.json")
	for _, tc := range []struct {
		o    benchOpts
		want string
	}{
		{benchOpts{section: "bogus"}, "unknown -section"},
		{benchOpts{section: "parallel"}, "unknown -section"},
		{benchOpts{section: "hotpath"}, "unknown -section"},
		{benchOpts{section: "chaos"}, "unknown -section"},
		{benchOpts{section: "all", out: out}, "-out needs"},
		{benchOpts{section: "examples", out: out}, "-out needs"},
		{benchOpts{section: "theorems", trials: -3}, "-trials"},
	} {
		err := run(tc.o)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("run(%+v) = %v, want an error containing %q", tc.o, err, tc.want)
		}
	}
	if _, err := os.Stat(out); err == nil {
		t.Fatalf("a rejected run wrote %s", out)
	}
}
