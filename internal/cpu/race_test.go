//go:build race

package cpu

// raceEnabled reports a -race build. The race detector's
// instrumentation allocates, so exact allocation counts do not hold.
const raceEnabled = true
