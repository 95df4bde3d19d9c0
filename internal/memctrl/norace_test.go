//go:build !race

package memctrl

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
