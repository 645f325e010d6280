//go:build !race

package beliefdb_test

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
