//go:build race

package laplace

// raceEnabled reports whether the race detector is compiled in, so the
// poisoned generation is built with it too.
const raceEnabled = true
