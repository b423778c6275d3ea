//go:build race

package vm

// raceEnabled reports a -race build. The race runtime makes sync.Pool
// drop a random share of Puts, so the interpreter's pooled frames are
// reallocated and allocation counts stop being meaningful; the
// allocation gates run in a plain build instead.
const raceEnabled = true
