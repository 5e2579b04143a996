//go:build !race

package stint

const raceEnabled = false
