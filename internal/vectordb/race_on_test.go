//go:build race

package vectordb

// raceEnabled reports that the race detector is on: sync.Pool then drops
// items at random, so allocation counts through the pool mean nothing.
const raceEnabled = true
