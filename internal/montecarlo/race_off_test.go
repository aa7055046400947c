//go:build !race

package montecarlo

const raceEnabled = false
