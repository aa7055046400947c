// Package obs is the repository's unified observability layer: one
// stdlib-only subsystem behind the three questions every perf or
// robustness PR has to answer — how fast is serving (metrics), where does
// the time go (tracing), and where does training spend its budget
// (TrainLog/TrainStats).
//
// Three pillars:
//
//   - Metrics: a Registry of atomic counters, gauges, and log-spaced-bucket
//     histograms, exported as deterministic (name- and label-sorted)
//     Prometheus text exposition; histogram snapshots, live or scraped,
//     estimate quantiles. The serving layer mounts it at GET /metrics.
//   - Tracing: request- and run-scoped trace IDs with hierarchical spans,
//     counter-based 1-in-N sampling, a bounded in-memory span ring, and a
//     Chrome trace-event JSON exporter (GET /debug/trace on the server,
//     `seltrain -trace out.json` offline).
//   - Training stats: TrainLog collects per-stage wall time and solver
//     iteration counts from the learners into a TrainStats value that
//     flows to seltrain output and the last retrain on /statz.
//
// Cost contract: the disabled paths are free enough to stay compiled into
// the hot paths. A span start/stop with sampling off is a nil/atomic check
// — zero allocations, single-digit nanoseconds (BenchmarkObsDisabled
// asserts this). Counter/gauge/histogram updates are single atomic ops.
// All methods on nil receivers are no-ops, so optional wiring needs no
// branches at the call sites.
//
// Determinism: obs is the one deterministic-scope package that may read
// the wall clock — timestamps are its whole point — so every clock read
// is concentrated in the two suppressed helpers below and never leaks
// into control flow of the instrumented packages.
package obs

import "time"

// monotonicSince returns the elapsed time since an instant captured with
// monotonicNow, immune to wall-clock steps.
//
//selvet:ignore detrand duration measurement for metrics/traces only; never feeds results
func monotonicSince(t0 time.Time) time.Duration { return time.Since(t0) }

// monotonicNow captures an instant carrying Go's monotonic reading, the
// anchor for monotonicSince.
//
//selvet:ignore detrand epoch capture for metrics/traces only; never feeds results
func monotonicNow() time.Time { return time.Now() }
