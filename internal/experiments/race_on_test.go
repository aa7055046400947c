//go:build race

package experiments

// raceEnabled gates the render golden: under -race every experiment runs
// about ten times slower, and the bytes are already checked without it.
const raceEnabled = true
