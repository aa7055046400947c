//go:build race

package montecarlo

// raceEnabled gates allocation-count assertions: race builds drop a share
// of sync.Pool puts at random, so pooled scratch is reallocated on some
// calls and the steady-state gates only hold without -race.
const raceEnabled = true
