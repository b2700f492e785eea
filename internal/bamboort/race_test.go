//go:build race

package bamboort_test

// raceEnabled reports whether the race detector is on. Its own
// allocations land in testing.AllocsPerRun, so allocation ceilings do not
// hold under it.
const raceEnabled = true
