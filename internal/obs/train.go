package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// StageTiming is one timed phase of a training run.
type StageTiming struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Items   int64   `json:"items,omitempty"` // stage-defined count: buckets built, rows assembled, …
}

// TrainStats is the per-training-run profile that flows from the learners
// to seltrain/selbench output and to the last retrain on /statz: which
// stage the time went to, and how hard the solver had to work. The
// accuracy-vs-training-time tradeoff of the paper's Section 4 becomes
// observable per run instead of only per benchmark sweep.
type TrainStats struct {
	Stages           []StageTiming `json:"stages,omitempty"`
	SolverMethod     string        `json:"solver_method,omitempty"`
	SolverIterations int           `json:"solver_iterations,omitempty"`
	TotalSeconds     float64       `json:"total_seconds"`
}

// StageSeconds returns the recorded duration of a named stage (0 when the
// stage did not run).
func (s *TrainStats) StageSeconds(name string) float64 {
	if s == nil {
		return 0
	}
	for _, st := range s.Stages {
		if st.Name == name {
			return st.Seconds
		}
	}
	return 0
}

// Summary renders the stats as one compact line for CLI output, e.g.
//
//	stages tau_search=0.004s quadtree_build=0.001s(259) solve=0.108s; solver nnls iters=42; total 0.113s
func (s *TrainStats) Summary() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	if len(s.Stages) > 0 {
		b.WriteString("stages ")
		for i, st := range s.Stages {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s=%.3fs", st.Name, st.Seconds)
			if st.Items > 0 {
				fmt.Fprintf(&b, "(%d)", st.Items)
			}
		}
	}
	if s.SolverMethod != "" {
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "solver %s", s.SolverMethod)
		if s.SolverIterations > 0 {
			fmt.Fprintf(&b, " iters=%d", s.SolverIterations)
		}
	}
	if b.Len() > 0 {
		b.WriteString("; ")
	}
	fmt.Fprintf(&b, "total %.3fs", s.TotalSeconds)
	return b.String()
}

// TrainLog collects TrainStats from inside a training run and mirrors
// every stage as a child span of an optional parent (so `seltrain -trace`
// sees the same stages the stats report). A nil *TrainLog is fully inert:
// every method is a no-op, so trainers carry their Log field unguarded.
//
// Timing always happens when a TrainLog exists, whether or not a tracer
// is attached — stage timings are a first-class training output, not a
// sampling artifact.
type TrainLog struct {
	mu     sync.Mutex
	parent Span
	stats  TrainStats
	t0     time.Time
}

// NewTrainLog returns a collector whose stage spans are children of
// parent (pass the zero Span for stats without tracing).
func NewTrainLog(parent Span) *TrainLog {
	return &TrainLog{parent: parent, t0: monotonicNow()}
}

// StageEnd closes one stage; obtained from TrainLog.Stage.
type StageEnd struct {
	l    *TrainLog
	name string
	span Span
	t0   time.Time
}

// Stage begins a named stage. Call End (or EndItems) on the result when
// the stage completes; stages are recorded in completion order.
func (l *TrainLog) Stage(name string) StageEnd {
	if l == nil {
		return StageEnd{}
	}
	return StageEnd{l: l, name: name, span: l.parent.Child(name), t0: monotonicNow()}
}

// End completes the stage.
func (e StageEnd) End() { e.EndItems(0) }

// EndItems completes the stage, annotating it with a count (buckets
// built, matrix rows, …).
func (e StageEnd) EndItems(items int64) {
	if e.l == nil {
		return
	}
	d := monotonicSince(e.t0)
	sp := e.span
	sp.Items = items
	sp.End()
	e.l.mu.Lock()
	e.l.stats.Stages = append(e.l.stats.Stages, StageTiming{
		Name:    e.name,
		Seconds: d.Seconds(),
		Items:   items,
	})
	e.l.mu.Unlock()
}

// SetSolver records which weight-estimation algorithm ran and how many
// iterations it took.
func (l *TrainLog) SetSolver(method string, iterations int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.stats.SolverMethod = method
	l.stats.SolverIterations = iterations
	l.mu.Unlock()
}

// Span returns the parent span stages are attached to (the zero Span for
// an untraced or nil log), letting learners hang extra sub-spans off the
// same trace.
func (l *TrainLog) Span() Span {
	if l == nil {
		return Span{}
	}
	return l.parent
}

// Stats returns a copy of the collected profile with TotalSeconds set to
// the elapsed time since the log was created. Stages are sorted by name
// only in exposition paths that need determinism; here they keep
// completion order, which mirrors the pipeline.
func (l *TrainLog) Stats() *TrainStats {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := l.stats
	out.Stages = make([]StageTiming, len(l.stats.Stages))
	copy(out.Stages, l.stats.Stages)
	l.mu.Unlock()
	out.TotalSeconds = monotonicSince(l.t0).Seconds()
	return &out
}
