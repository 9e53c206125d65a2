//go:build race

package core

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so allocation pins mean nothing under -race.
const raceEnabled = true
