//go:build race

package workloads

const raceEnabled = true
