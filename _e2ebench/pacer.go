package main

import (
	"syscall"
	"time"
)

// The open-loop generator must release each request at its scheduled
// instant. time.Sleep is too coarse for that on small Linux boxes: the Go
// timer wakes up 0.7–1 ms late at the median and ~4 ms late at p99 for
// sub-2 ms sleeps, which would make the generator, not the server, set the
// measured latency. A single raw nanosleep is precise to tens of µs for
// short waits, but a longer one lets an idle virtual CPU halt, and waking
// it again can take milliseconds. The pacer therefore uses time.Sleep only
// far from the due time, one nanosleep until `near` before it, then
// short nanosleeps, and spins for the last few µs.
const (
	coarseAbove = 6 * time.Millisecond   // time.Sleep only above this distance…
	coarseKeep  = 5 * time.Millisecond   // …and wakes this far ahead of the due time
	near        = 300 * time.Microsecond // short sleeps from this distance on
	chunk       = 50 * time.Microsecond  // the short sleep
	spinBelow   = 60 * time.Microsecond  // spin below this distance
)

// pacer releases scheduled items relative to a start instant and records
// how late each release was.
type pacer struct {
	start time.Time
	late  []float64 // µs per release, in release order
	// stall, when set, runs before each release; tests inject a stall
	// through it to exercise the lateness gate.
	stall func(i int)
}

func newPacer(start time.Time, n int) *pacer {
	return &pacer{start: start, late: make([]float64, 0, n)}
}

// wait blocks until due (an offset from start) and records the lateness.
func (p *pacer) wait(due time.Duration) {
	if p.stall != nil {
		p.stall(len(p.late))
	}
	for {
		d := due - time.Since(p.start)
		switch {
		case d <= 0:
			p.late = append(p.late, float64(-d)/1e3)
			return
		case d > coarseAbove:
			time.Sleep(d - coarseKeep)
		case d > near+chunk:
			nanosleep(d - near)
		case d > spinBelow:
			nanosleep(min(d-spinBelow, chunk))
		}
	}
}

func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR just re-enters the caller's loop
}

// latenessOK is the harness validity gate: a run whose generator p99
// lateness exceeds boundUS measured the harness, not the server.
func latenessOK(late []float64, boundUS float64) bool {
	return len(late) == 0 || pct(late, 0.99) <= boundUS
}
