package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
)

// The same seed must render a byte-identical request stream — schedule,
// classes, wire bytes and served snapshot — and another seed a different
// one.
func TestSameSeedRendersIdenticalStream(t *testing.T) {
	cfg, err := workloadByName("repeat_rw")
	if err != nil {
		t.Fatal(err)
	}
	digest := func(seed uint64) [32]byte {
		p, err := render(cfg, seed, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.open) == 0 || len(p.swaps) == 0 {
			t.Fatalf("seed %d: empty plan (%d open requests, %d swaps)", seed, len(p.open), len(p.swaps))
		}
		return p.digest()
	}
	a, b, c := digest(7), digest(7), digest(8)
	if a != b {
		t.Fatal("seed 7 rendered two different request streams")
	}
	if a == c {
		t.Fatal("seeds 7 and 8 rendered the same request stream")
	}
}

func TestCheckerRejectsBadResponses(t *testing.T) {
	box := geom.NewBox(geom.Point{0.1, 0.1}, geom.Point{0.4, 0.5})
	exact := &request{cls: clsBatch, nq: 2, ranges: []geom.Range{box, box}, want: []float64{0.25, 0.125}}
	loose := &request{cls: clsSingle, nq: 1, ranges: []geom.Range{box}}
	cases := []struct {
		name    string
		req     *request
		gen     int64
		ests    []float64
		lastGen int64
		want    error // nil: accepted; errAny: any rejection
	}{
		{"exact match", exact, 3, []float64{0.25, 0.125}, 3, nil},
		{"corrupted estimate", exact, 3, []float64{0.25, 0.12500000000000003}, 3, errAny},
		{"wrong count", exact, 3, []float64{0.25}, 3, errCount},
		{"stale generation", exact, 2, []float64{0.25, 0.125}, 3, errStale},
		{"newer generation", loose, 9, []float64{0.5}, 3, nil},
		{"outside [0,1]", loose, 3, []float64{1.5}, 3, errRange},
		{"NaN", loose, 3, []float64{nan()}, 3, errRange},
	}
	for _, tc := range cases {
		last := tc.lastGen
		err := checkEstimates(tc.req, tc.gen, tc.ests, &last)
		switch {
		case tc.want == nil && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want == errAny && err == nil, tc.want != nil && tc.want != errAny && !errors.Is(err, tc.want):
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

var errAny = errors.New("any error")

func nan() float64 {
	zero := 0.0
	return zero / zero
}

func TestParsersReadServerResponses(t *testing.T) {
	gen, ests, err := parseEstimateJSON([]byte(`{"model":"default","generation":4,"estimates":[0.5,1e-7,0]}`+"\n"), nil)
	if err != nil || gen != 4 || len(ests) != 3 || ests[1] != 1e-7 {
		t.Fatalf("batch: gen %d ests %v err %v", gen, ests, err)
	}
	gen, ests, err = parseEstimateJSON([]byte(`{"model":"default","generation":1,"estimate":0.0123}`), nil)
	if err != nil || gen != 1 || len(ests) != 1 || ests[0] != 0.0123 {
		t.Fatalf("single: gen %d ests %v err %v", gen, ests, err)
	}
	ests, err = parseStream([]byte("{\"estimate\":0.25}\n{\"estimate\":0.5}\n"), nil)
	if err != nil || len(ests) != 2 || ests[1] != 0.5 {
		t.Fatalf("stream: ests %v err %v", ests, err)
	}
	if _, err := parseStream([]byte("{\"error\":\"query 0: bad\"}\n"), nil); err == nil {
		t.Fatal("stream: an error line was accepted")
	}
}

// A stall in the generator makes every release queued behind it late; the
// lateness gate must then mark the run invalid.
func TestLatenessGateTripsOnStall(t *testing.T) {
	const n = 200
	p := newPacer(time.Now(), n)
	p.stall = func(i int) {
		if i == n/2 {
			time.Sleep(60 * time.Millisecond)
		}
	}
	for i := 0; i < n; i++ {
		p.wait(time.Duration(i) * time.Millisecond)
	}
	if latenessOK(p.late, lateBoundUS) {
		t.Fatalf("a 60 ms stall passed the gate: p99 lateness %.0f µs", pct(p.late, 0.99))
	}
	if !latenessOK([]float64{0, 3, 12, 40, 150}, lateBoundUS) {
		t.Fatal("a punctual generator failed the gate")
	}
}

// The training child trains at least once per chunk, reports its running
// repetition count, and its last chunk trains every input set and retrains
// the first before the report.
func TestTrainChildChunks(t *testing.T) {
	cfg := workloadCfg{name: "tiny", train: trainCfg{
		histQueries: 40, histBuckets: 40, ptsQueries: 40, ptsPoints: 80,
		testQueries: 40, inputSets: 3, setupReps: 1,
	}}
	var out bytes.Buffer
	if err := trainChild(cfg, 1, "", strings.NewReader("0\n0 last\n"), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(out.String(), "\n", 4)
	if len(lines) < 4 || lines[0] != "ready" || lines[1] != "ok 1" || lines[2] != "ok 4" {
		t.Fatalf("protocol lines %q", lines[:min(3, len(lines))])
	}
	var res trainResult
	if err := json.Unmarshal([]byte(lines[3]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.TrainS) != 4 || len(res.SetRMS) != 3 {
		t.Fatalf("%d repetitions over %d sets, want 4 over 3", len(res.TrainS), len(res.SetRMS))
	}
}

func TestPercentilesAreNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := pct(xs, 0.99); got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990 (10 samples beyond it)", got)
	}
	if got := median(xs); got != 500 {
		t.Fatalf("median of 1..1000 = %v, want 500", got)
	}
}
