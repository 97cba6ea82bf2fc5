//go:build race

package wal_test

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation makes allocation accounting (and so
// the zero-alloc pin) unreliable.
const raceEnabled = true
