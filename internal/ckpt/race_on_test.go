//go:build race

package ckpt

// raceEnabled reports whether the race detector is compiled in: it makes
// the wire codec's sync.Pool drop a quarter of its Puts on purpose, so the
// allocation gate skips itself.
const raceEnabled = true
