//go:build !race

package bamboort_test

// raceEnabled reports whether the race detector is on (see race_test.go).
const raceEnabled = false
