//go:build race

package stint

// raceEnabled reports a build with Go's race detector (see frameList).
const raceEnabled = true
