//go:build !race

package vectordb

const raceEnabled = false
