package serve

// End-to-end acceptance test for the serving loop: a real server on an
// ephemeral port, a model upload, concurrent estimate traffic during both
// a PUT hot-swap and a feedback-triggered retrain, then a graceful drain.
// Run with -race: the whole point of the subsystem is that this access
// pattern is safe.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/workload"
)

// post sends a JSON body and returns the status code and response bytes.
func post(t *testing.T, client *http.Client, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// estimateRMS measures a model's RMS over test via the HTTP API.
func estimateRMS(t *testing.T, client *http.Client, base string, test []core.LabeledQuery) float64 {
	t.Helper()
	var queries []wireQuery
	for _, z := range test {
		b := z.R.(geom.Box)
		queries = append(queries, wireQuery{Lo: b.Lo, Hi: b.Hi})
	}
	body, _ := json.Marshal(estimateRequest{Queries: queries})
	code, out := post(t, client, "POST", base+"/v1/estimate", body)
	if code != 200 {
		t.Fatalf("estimate: HTTP %d: %s", code, out)
	}
	var resp estimateResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	return metrics.RMS(resp.Estimates, workload.Truths(test))
}

func TestEndToEndServingLoop(t *testing.T) {
	// Workload: a small initial training set (the "maintenance window"
	// model) plus a large feedback stream from the same distribution,
	// and a held-out test set.
	all, test := fixture(t, 500, 120)
	initial, feedback := all[:60], all[60:]

	m0 := trainModel(t, initial)
	s := NewServer(Options{
		MinRetrainSamples: 100,
		RetrainInterval:   time.Hour, // retrains are driven explicitly below
		DrainTimeout:      5 * time.Second,
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	client := &http.Client{Timeout: 10 * time.Second}

	// Upload the initial model.
	code, out := post(t, client, "PUT", base+"/v1/models/default", envelopeOf(t, m0))
	if code != 200 {
		t.Fatalf("upload: HTTP %d: %s", code, out)
	}
	preRMS := estimateRMS(t, client, base, test)

	// Concurrent load: 8 goroutines issue estimate requests nonstop
	// while the main goroutine hot-swaps via PUT, streams feedback, and
	// forces retrains. No request may fail, let alone 5xx.
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	reqBody, _ := json.Marshal(estimateRequest{Query: &wireQuery{
		Lo: []float64{0.1, 0.1}, Hi: []float64{0.6, 0.6},
	}})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := client.Post(base+"/v1/estimate", "application/json", bytes.NewReader(reqBody))
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errc <- fmt.Errorf("estimate under load: HTTP %d", resp.StatusCode)
					return
				}
			}
		}()
	}

	// A PUT hot-swap in the middle of the barrage.
	m1 := trainModel(t, all[:120])
	if code, out := post(t, client, "PUT", base+"/v1/models/default", envelopeOf(t, m1)); code != 200 {
		t.Fatalf("hot-swap upload: HTTP %d: %s", code, out)
	}

	// Stream the feedback in batches and force retrain passes while the
	// readers keep hammering.
	for start := 0; start < len(feedback); start += 110 {
		end := min(start+110, len(feedback))
		var obs []observation
		for _, z := range feedback[start:end] {
			b := z.R.(geom.Box)
			sel := z.Sel
			obs = append(obs, observation{wireQuery: wireQuery{Lo: b.Lo, Hi: b.Hi}, Sel: &sel})
		}
		body, _ := json.Marshal(feedbackRequest{Observations: obs})
		if code, out := post(t, client, "POST", base+"/v1/feedback", body); code != 200 {
			t.Fatalf("feedback: HTTP %d: %s", code, out)
		}
		if code, out := post(t, client, "POST", base+"/v1/retrain", nil); code != 200 {
			t.Fatalf("retrain: HTTP %d: %s", code, out)
		}
	}

	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// The feedback loop must have actually retrained and swapped at
	// least once (plenty of fresh, clean feedback arrived).
	_, out = post(t, client, "GET", base+"/metrics", nil)
	scrape, err := obs.ParseScrape(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if runs := scrape.SumCounter("selserve_retrain_runs_total"); runs == 0 {
		t.Fatal("retrainer never ran")
	}
	swaps := scrape.SumCounter("selserve_retrain_swaps_total")
	if swaps == 0 {
		t.Fatal("retrainer never swapped")
	}
	for _, sm := range scrape.Family("selserve_http_errors_total").Samples {
		if strings.Contains(sm.Labels, `class="5xx"`) && sm.Value != 0 {
			t.Fatalf("%s%s = %v", sm.Name, sm.Labels, sm.Value)
		}
	}
	var st statzResponse
	_, out = post(t, client, "GET", base+"/statz", nil)
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatal(err)
	}
	if st.Retrainer.Last == nil || st.Retrainer.Last.Model != DefaultModelName {
		t.Fatalf("statz retrainer.last = %+v, want the last pass over %q", st.Retrainer.Last, DefaultModelName)
	}

	// Post-retrain accuracy on held-out queries must not regress versus
	// the pre-feedback model: the guarded swap only publishes candidates
	// that improve on held-out feedback, and the feedback stream here is
	// clean and much larger than the initial training set.
	postRMS := estimateRMS(t, client, base, test)
	if postRMS > preRMS+1e-9 {
		t.Fatalf("held-out RMS regressed after feedback: %.5f -> %.5f", preRMS, postRMS)
	}
	t.Logf("held-out RMS: pre-feedback %.5f, post-retrain %.5f (gen %d, %v swaps)",
		preRMS, postRMS, st.Models[0].Generation, swaps)

	// Graceful drain: cancelling the context must stop Serve cleanly.
	// Release the client's keep-alive sockets first — Shutdown waits for
	// connections that never carried a request, and a well-behaved
	// client hangs up when told to drain.
	client.CloseIdleConnections()
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve did not drain cleanly: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after cancel")
	}
}
