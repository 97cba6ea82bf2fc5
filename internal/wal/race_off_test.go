//go:build !race

package wal_test

// raceEnabled reports whether this test binary was built with the race
// detector; see race_on_test.go.
const raceEnabled = false
