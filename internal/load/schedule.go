// Package load is the open-loop load-generation harness behind
// cmd/selload, with its latency-reporting layer.
//
// The central design decision is the OPEN loop: request start times come
// from a precomputed arrival schedule (exponential or uniform
// inter-arrival gaps at a target rate), not from the completion of the
// previous request. A closed-loop client that waits for each response
// before sending the next one silently stretches its own schedule
// whenever the server stalls — the classic coordinated-omission trap,
// where a one-second server pause costs one slow sample instead of a
// thousand. Here every event keeps its intended start time; if the server
// (or the client worker) falls behind, the next requests fire immediately
// and their INTENDED-start latency (completion − scheduled start) absorbs
// the backlog, which is exactly the latency a real user arriving at that
// moment would have seen. The ACTUAL-start latency (completion − send)
// is recorded alongside as the server-service-time view; a growing gap
// between the two distributions is the signature of saturation.
//
// The schedule is a pure function of a ScheduleSpec: gaps come from an
// internal/rng stream and per-event content seeds from
// parallel.DeriveSeed, so the same seed reproduces the same schedule —
// arrival times, traffic classes, and request payloads — byte for byte,
// at any worker count (workers partition the one schedule round-robin;
// they never generate their own). That determinism is what makes a
// BENCH artifact from one run comparable to the next.
package load

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// Class is one traffic class of the mixed workload.
type Class uint8

const (
	// ClassSingle is a single-query POST /v1/estimate.
	ClassSingle Class = iota
	// ClassBatch is a batched POST /v1/estimate (BatchQueries queries).
	ClassBatch
	// ClassStream is a POST /v1/estimate/stream NDJSON request
	// (StreamQueries queries on one connection).
	ClassStream
	// ClassBin is a single estimate frame on the binary protocol.
	ClassBin
	// ClassFeedback is a POST /v1/feedback upload (FeedbackObs
	// observations).
	ClassFeedback
	// ClassSwap is a PUT /v1/models/{name} hot-swap of a freshly built
	// (seed-perturbed) model envelope.
	ClassSwap

	// NumClasses bounds the class enum; it is not itself a class.
	NumClasses
)

var classNames = [NumClasses]string{"single", "batch", "stream", "bin", "feedback", "swap"}

func (c Class) String() string {
	if c < NumClasses {
		return classNames[c]
	}
	return "class(" + strconv.Itoa(int(c)) + ")"
}

// ParseClass inverts Class.String.
func ParseClass(s string) (Class, error) {
	for i, n := range classNames {
		if n == s {
			return Class(i), nil
		}
	}
	return 0, fmt.Errorf("load: unknown traffic class %q (want one of %s)", s, strings.Join(classNames[:], ", "))
}

// Mix holds the relative weight of each traffic class. Weights need not
// sum to 1; only ratios matter. The zero Mix is invalid — use DefaultMix
// or ParseMix.
type Mix [NumClasses]float64

// DefaultMix is estimate-dominated traffic with a trickle of feedback and
// rare hot-swaps, the shape ROADMAP item 4 describes.
func DefaultMix() Mix {
	var m Mix
	m[ClassSingle] = 6
	m[ClassBatch] = 1
	m[ClassStream] = 0.5
	m[ClassBin] = 1.5
	m[ClassFeedback] = 1
	m[ClassSwap] = 0.02
	return m
}

// ParseMix parses "single=6,batch=1,swap=0.02"; omitted classes get
// weight 0. At least one weight must be positive.
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("load: malformed mix term %q (want class=weight)", part)
		}
		cl, err := ParseClass(strings.TrimSpace(k))
		if err != nil {
			return m, err
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil || math.IsNaN(w) || w < 0 {
			return m, fmt.Errorf("load: bad weight for class %q: %q", k, v)
		}
		m[cl] = w
	}
	return m, m.validate()
}

func (m Mix) validate() error {
	total := 0.0
	for _, w := range m {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("load: mix weights must be finite and non-negative")
		}
		total += w
	}
	if total <= 0 {
		return fmt.Errorf("load: mix needs at least one positive weight")
	}
	return nil
}

// MixFromMap builds a Mix from a class-name→weight map (the SLO manifest
// form). An empty map yields DefaultMix.
func MixFromMap(weights map[string]float64) (Mix, error) {
	if len(weights) == 0 {
		return DefaultMix(), nil
	}
	var m Mix
	// Sorted iteration: the floats land in m by class index either way,
	// but error reporting must not depend on map order.
	names := make([]string, 0, len(weights))
	for k := range weights {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		cl, err := ParseClass(k)
		if err != nil {
			return m, err
		}
		w := weights[k]
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return m, fmt.Errorf("load: bad weight %v for class %q", w, k)
		}
		m[cl] = w
	}
	return m, m.validate()
}

// Map renders the mix as a class-name→weight map (positive weights only),
// for the JSON report.
func (m Mix) Map() map[string]float64 {
	out := make(map[string]float64)
	for cl, w := range m {
		if w > 0 {
			out[Class(cl).String()] = w
		}
	}
	return out
}

// Arrival selects the inter-arrival process.
type Arrival uint8

const (
	// ArrivalExp draws exponential gaps (a Poisson arrival process, the
	// standard open-loop model: bursts happen).
	ArrivalExp Arrival = iota
	// ArrivalUniform draws gaps uniform on (0, 2/rate) — same mean rate,
	// bounded burstiness, useful for isolating queueing effects.
	ArrivalUniform
)

func (a Arrival) String() string {
	if a == ArrivalUniform {
		return "uniform"
	}
	return "exp"
}

// ParseArrival inverts Arrival.String ("" defaults to exp).
func ParseArrival(s string) (Arrival, error) {
	switch s {
	case "", "exp":
		return ArrivalExp, nil
	case "uniform":
		return ArrivalUniform, nil
	}
	return 0, fmt.Errorf("load: unknown arrival process %q (want exp or uniform)", s)
}

// ScheduleSpec parameterizes one open-loop run.
type ScheduleSpec struct {
	Seed     uint64        // base seed; every derived stream hangs off it
	Rate     float64       // mean arrivals per second, all classes combined
	Duration time.Duration // schedule horizon
	Arrival  Arrival
	Mix      Mix
}

// Event is one scheduled request: an intended start offset from the run
// epoch, a traffic class, and the seed its payload derives from.
type Event struct {
	Index int           // position in the global schedule
	At    time.Duration // intended start, relative to the run epoch
	Class Class
	Seed  uint64 // per-event content seed (parallel.DeriveSeed of the base)
}

// maxScheduleEvents bounds schedule memory: ~48 bytes/event keeps even
// this ceiling under a gigabyte, and any realistic SLO scenario is far
// smaller.
const maxScheduleEvents = 20_000_000

// Build materializes the schedule: event arrival offsets, classes, and
// content seeds. The result depends only on the spec — never on worker
// count, wall clock, or host — and the same spec always yields the same
// events (the determinism test diffs the bytes).
func (s ScheduleSpec) Build() ([]Event, error) {
	if !(s.Rate > 0) || math.IsInf(s.Rate, 0) {
		return nil, fmt.Errorf("load: schedule rate must be positive and finite, got %v", s.Rate)
	}
	if s.Duration <= 0 {
		return nil, fmt.Errorf("load: schedule duration must be positive, got %v", s.Duration)
	}
	if err := s.Mix.validate(); err != nil {
		return nil, err
	}
	if expect := s.Rate * s.Duration.Seconds(); expect > maxScheduleEvents {
		return nil, fmt.Errorf("load: schedule of ~%.0f events exceeds the %d-event ceiling", expect, maxScheduleEvents)
	}

	// Cumulative mix thresholds for the weighted class pick.
	var cum [NumClasses]float64
	total := 0.0
	for i, w := range s.Mix {
		total += w
		cum[i] = total
	}

	gaps := rng.New(parallel.DeriveSeed(s.Seed, 0x9a9))
	events := make([]Event, 0, int(s.Rate*s.Duration.Seconds())+16)
	at := time.Duration(0)
	for i := 0; ; i++ {
		// First arrival at one gap in, not at t=0: an empty prefix is part
		// of the arrival process too.
		u := gaps.Float64()
		var gapSec float64
		if s.Arrival == ArrivalUniform {
			gapSec = 2 * u / s.Rate
		} else {
			// Float64 is in [0,1); 1-u is in (0,1], so the log is finite.
			gapSec = -math.Log(1-u) / s.Rate
		}
		at += time.Duration(gapSec * float64(time.Second))
		if at >= s.Duration {
			break
		}
		seed := parallel.DeriveSeed(s.Seed, uint64(i))
		// The class pick uses its own derived stream so payload content
		// (which consumes Seed) stays independent of the mix.
		pick := float64(parallel.DeriveSeed(seed, 0xC1A55)>>11) / (1 << 53) * total
		class := Class(0)
		for class < NumClasses-1 && pick >= cum[class] {
			class++
		}
		events = append(events, Event{Index: i, At: at, Class: class, Seed: seed})
		if len(events) > maxScheduleEvents {
			return nil, fmt.Errorf("load: schedule exceeded the %d-event ceiling", maxScheduleEvents)
		}
	}
	return events, nil
}

// Partition deals the schedule round-robin across workers: worker w owns
// events[i] with i ≡ w (mod workers), in schedule order. Every partition
// of the same schedule covers exactly the same events with the same
// intended times — changing the worker count reassigns who SENDS an
// event, never what is sent or when it was due.
func Partition(events []Event, workers int) [][]Event {
	if workers < 1 {
		workers = 1
	}
	out := make([][]Event, workers)
	for w := range out {
		n := (len(events) - w + workers - 1) / workers
		out[w] = make([]Event, 0, n)
	}
	for i, ev := range events {
		out[i%workers] = append(out[i%workers], ev)
	}
	return out
}

// AppendEventBytes appends a canonical byte encoding of the event —
// schedule position, intended time, class, seed, and the exact request
// payload it would send — used by the determinism tests to diff schedules
// across worker counts and runs.
func AppendEventBytes(dst []byte, ev Event, modelName string) ([]byte, error) {
	dst = strconv.AppendInt(dst, int64(ev.Index), 10)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(ev.At), 10)
	dst = append(dst, '|')
	dst = append(dst, ev.Class.String()...)
	dst = append(dst, '|')
	dst = strconv.AppendUint(dst, ev.Seed, 16)
	dst = append(dst, '|')
	payload, err := EventPayload(ev, modelName)
	if err != nil {
		return dst, err
	}
	dst = append(dst, payload...)
	dst = append(dst, '\n')
	return dst, nil
}
