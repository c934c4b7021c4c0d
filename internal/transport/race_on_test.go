//go:build race

package transport

// raceEnabled reports whether the tests were built with -race.
const raceEnabled = true
