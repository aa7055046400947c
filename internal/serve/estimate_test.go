package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/hist"
)

// unitModel builds a one-bucket histogram over the unit square whose
// total weight is w, so Estimate(box) = w · vol(box ∩ [0,1]²) exactly —
// a model with analytically known outputs for swap tests.
func unitModel(w float64) *hist.Model {
	return &hist.Model{
		Buckets: []geom.Box{geom.UnitCube(2)},
		Weights: []float64{w},
	}
}

func postEstimate(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, estimateResponse) {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/estimate", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var resp estimateResponse
	if w.Code == 200 {
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad response JSON: %v: %s", err, w.Body.String())
		}
	}
	return w, resp
}

// A batch with several malformed queries must come back as ONE 400 that
// names every bad index, so the client can fix the whole batch in one
// round trip.
func TestEstimateMalformedBatchReportsAllIndices(t *testing.T) {
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", unitModel(1))
	h := s.Handler()

	// Index 1: no class fields. Index 3: dimension mismatch (model is 2-D).
	// Index 4: negative radius. Indices 0 and 2 are fine.
	body := `{"queries":[
		{"lo":[0,0],"hi":[1,1]},
		{},
		{"center":[0.5,0.5],"radius":0.1},
		{"lo":[0],"hi":[1]},
		{"center":[0.5,0.5],"radius":-1}
	]}`
	w, _ := postEstimate(t, h, body)
	if w.Code != 400 {
		t.Fatalf("HTTP %d, want 400", w.Code)
	}
	var apiErr apiError
	if err := json.Unmarshal(w.Body.Bytes(), &apiErr); err != nil {
		t.Fatalf("bad error JSON: %v", err)
	}
	for _, want := range []string{"3 of 5", "query 1:", "query 3:", "query 4:"} {
		if !strings.Contains(apiErr.Error, want) {
			t.Fatalf("error %q does not mention %q", apiErr.Error, want)
		}
	}
	for _, good := range []string{"query 0:", "query 2:"} {
		if strings.Contains(apiErr.Error, good) {
			t.Fatalf("error %q blames valid %s", apiErr.Error, good)
		}
	}
}

// A hot-swap bumps the generation: the same query asked again after the
// swap answers with the new model's bits and generation, never the old
// one's.
func TestEstimateAfterSwapAnswersNewModel(t *testing.T) {
	m1, m2 := unitModel(1), unitModel(0.5)
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", m1)
	h := s.Handler()

	q := geom.NewBox(geom.Point{0, 0}, geom.Point{0.5, 0.5})
	body := `{"query":{"lo":[0,0],"hi":[0.5,0.5]}}`

	_, resp := postEstimate(t, h, body)
	if resp.Generation != 1 || resp.Estimate == nil || math.Float64bits(*resp.Estimate) != math.Float64bits(m1.Estimate(q)) {
		t.Fatalf("first estimate: %+v", resp)
	}

	s.Registry().Set(DefaultModelName, "test", m2) // generation 2
	_, resp = postEstimate(t, h, body)
	if resp.Generation != 2 {
		t.Fatalf("post-swap generation %d, want 2", resp.Generation)
	}
	if math.Float64bits(*resp.Estimate) != math.Float64bits(m2.Estimate(q)) {
		t.Fatalf("post-swap estimate %v is stale (m1 would be %v, m2 is %v)",
			*resp.Estimate, m1.Estimate(q), m2.Estimate(q))
	}
}

// Concurrent batched estimates racing with hot-swaps must never mix
// generations: every value in a response must come from the model whose
// generation the response reports. Run under -race this also exercises
// the registry and scratch pool for data races.
func TestEstimateGenerationConsistencyUnderSwap(t *testing.T) {
	m1, m2 := unitModel(1), unitModel(0.5)
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", m1) // generation 1 = m1
	h := s.Handler()

	const n = 70 // above the parallel threshold
	queries := make([]geom.Range, n)
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		f := float64(i+1) / float64(n+1)
		queries[i] = geom.NewBox(geom.Point{0, 0}, geom.Point{f, 0.5})
		fmt.Fprintf(&sb, `{"lo":[0,0],"hi":[%g,0.5]}`, f)
	}
	sb.WriteString(`]}`)
	body := sb.String()

	// Precompute per-model expectations; the swapper alternates, so odd
	// generations serve m1 and even generations m2.
	want1 := make([]float64, n)
	want2 := make([]float64, n)
	for i, q := range queries {
		want1[i] = m1.Estimate(q)
		want2[i] = m2.Estimate(q)
	}

	const swaps = 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < swaps; i++ {
			if i%2 == 0 {
				s.Registry().Set(DefaultModelName, "swap", m2)
			} else {
				s.Registry().Set(DefaultModelName, "swap", m1)
			}
			runtime.Gosched()
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w, resp := postEstimate(t, h, body)
				if w.Code != 200 {
					t.Errorf("HTTP %d: %s", w.Code, w.Body.String())
					return
				}
				want := want1
				if resp.Generation%2 == 0 {
					want = want2
				}
				for i, got := range resp.Estimates {
					if got != want[i] {
						t.Errorf("generation %d response mixed models at index %d: got %v, want %v",
							resp.Generation, i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
