//go:build race

package engine

// raceEnabled reports a -race build: the detector's instrumentation
// allocates on its own, so allocation pins skip under it.
const raceEnabled = true
