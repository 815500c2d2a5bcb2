//go:build !race

package laplace

const raceEnabled = false
