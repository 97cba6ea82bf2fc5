package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"pwsr/internal/experiments"
)

// cancelCorpusDir holds the checked-in cancellation corpus for -mode
// cancel: each file is a JSON experiments.CancelCase (the format
// TestCancelMatrix dumps as cancel-failed-<seed>.json), replayed
// through the full cancel-at-every-point differential. Drop a failure
// artifact in here to turn it into a permanent regression case.
const cancelCorpusDir = "testdata/cancel"

// runCancel is -mode cancel: corpus replay first, then randomized
// cancel-at-every-point trials — each arms one deterministic cancel
// (admission tick, journal write/sync, commit turn, or drain step) and
// checks the typed-error, no-partial-grant, no-lost-admission, and
// recovery obligations. The population guarantees zero failures; any
// failure aborts the run and, with -v, prints the replayable case.
func runCancel(trials int, baseSeed int64, verbose bool) (int, error) {
	corpus, err := filepath.Glob(filepath.Join(cancelCorpusDir, "*.json"))
	if err != nil {
		return 0, err
	}
	if len(corpus) == 0 {
		// Running from the repository root rather than cmd/pwsrfuzz.
		if corpus, err = filepath.Glob(filepath.Join("cmd", "pwsrfuzz", cancelCorpusDir, "*.json")); err != nil {
			return 0, err
		}
	}
	if len(corpus) == 0 {
		fmt.Fprintf(os.Stderr, "pwsrfuzz: warning: no cancel corpus found under %s (run from the repo root or cmd/pwsrfuzz); corpus replay skipped\n",
			cancelCorpusDir)
	}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			return 0, err
		}
		var c experiments.CancelCase
		if err := json.Unmarshal(data, &c); err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		if _, err := experiments.RunCancelCase(c); err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
	}
	if len(corpus) > 0 {
		fmt.Printf("corpus: %d cancel replay cases ok\n", len(corpus))
	}

	for i := 0; i < trials; i++ {
		seed := baseSeed + int64(i)
		if _, err := experiments.RunCancelTrial(seed); err != nil {
			var cf *experiments.CancelFailure
			if verbose && errors.As(err, &cf) {
				fmt.Printf("replayable case:\n%s\n", cf.CaseJSON())
			}
			return 0, err
		}
	}
	return 0, nil
}
