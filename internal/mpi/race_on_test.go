//go:build race

package mpi

// raceEnabled reports whether the race detector is compiled in: it makes
// the free list's sync.Pool drop a quarter of its Puts on purpose, so the
// allocation gates skip themselves.
const raceEnabled = true
