//go:build race

package main

// raceEnabled reports that the Go race detector is watching the tests.
const raceEnabled = true
