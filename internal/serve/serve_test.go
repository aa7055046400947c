package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/hist"
	"repro/internal/isomer"
	"repro/internal/modelio"
	"repro/internal/ptshist"
	"repro/internal/quicksel"
	"repro/internal/wirebin"
	"repro/internal/workload"
)

// fixture returns a labeled 2-D box workload split into train/test.
func fixture(t *testing.T, nTrain, nTest int) ([]core.LabeledQuery, []core.LabeledQuery) {
	t.Helper()
	ds := dataset.Power(3000, 1).Project([]int{0, 1})
	g := workload.NewGenerator(ds, 11)
	spec := workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}
	return g.TrainTest(spec, nTrain, nTest)
}

// trainModel fits a QuadHist model on the sample.
func trainModel(t *testing.T, train []core.LabeledQuery) core.Model {
	t.Helper()
	m, err := hist.New(2, 200).Train(train)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// envelopeOf serializes a model to modelio envelope bytes.
func envelopeOf(t *testing.T, m core.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := modelio.Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// doJSON posts body to the handler and decodes the JSON response into out.
func doJSON(t *testing.T, h http.Handler, method, path string, body []byte, out any) int {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if out != nil && w.Code < 300 {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad response JSON: %v: %s", method, path, err, w.Body.String())
		}
	}
	return w.Code
}

func TestRingDropOldest(t *testing.T) {
	r := newRing(3)
	q := func(sel float64) core.LabeledQuery {
		return core.LabeledQuery{R: geom.UnitCube(1), Sel: sel}
	}
	for i := 1; i <= 3; i++ {
		if r.add(q(float64(i))) {
			t.Fatalf("add %d dropped before full", i)
		}
	}
	if !r.add(q(4)) {
		t.Fatal("overflowing add did not report a drop")
	}
	snap := r.snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot size %d, want 3", len(snap))
	}
	for i, want := range []float64{2, 3, 4} {
		if snap[i].Sel != want {
			t.Fatalf("snapshot[%d].Sel = %v, want %v (drop-oldest order)", i, snap[i].Sel, want)
		}
	}
	if r.total != 4 || r.drop != 1 {
		t.Fatalf("total=%d drop=%d, want 4/1", r.total, r.drop)
	}
}

func TestRegistryGenerationsAndCAS(t *testing.T) {
	train, _ := fixture(t, 40, 10)
	m1 := trainModel(t, train)
	m2 := trainModel(t, train[:20])

	reg := NewRegistry()
	if _, ok := reg.Get("x"); ok {
		t.Fatal("empty registry returned a model")
	}
	e1 := reg.Set("x", "upload", m1)
	if e1.Generation != 1 {
		t.Fatalf("first generation %d, want 1", e1.Generation)
	}
	e2 := reg.Set("x", "upload", m2)
	if e2.Generation != 2 {
		t.Fatalf("second generation %d, want 2", e2.Generation)
	}
	// A CAS against the stale entry must lose.
	if e := reg.CompareAndSwap("x", "retrain", e1, m1); e != nil {
		t.Fatal("stale CompareAndSwap succeeded")
	}
	// Against the current entry it must win and bump the generation.
	e3 := reg.CompareAndSwap("x", "retrain", e2, m1)
	if e3 == nil || e3.Generation != 3 || e3.Source != "retrain" {
		t.Fatalf("current CompareAndSwap: %+v", e3)
	}
	if got, _ := reg.Get("x"); got != e3 {
		t.Fatal("Get did not observe the swapped entry")
	}
}

func TestEstimateEndpoint(t *testing.T) {
	train, test := fixture(t, 60, 5)
	m := trainModel(t, train)
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", m)
	h := s.Handler()

	// Batch request: estimates must match direct calls exactly.
	var queries []wireQuery
	for _, z := range test {
		b := z.R.(geom.Box)
		queries = append(queries, wireQuery{Lo: b.Lo, Hi: b.Hi})
	}
	body, _ := json.Marshal(estimateRequest{Queries: queries})
	var resp estimateResponse
	if code := doJSON(t, h, "POST", "/v1/estimate", body, &resp); code != 200 {
		t.Fatalf("batch estimate: HTTP %d", code)
	}
	if resp.Model != DefaultModelName || resp.Generation != 1 {
		t.Fatalf("response metadata: %+v", resp)
	}
	if len(resp.Estimates) != len(test) {
		t.Fatalf("%d estimates, want %d", len(resp.Estimates), len(test))
	}
	for i, z := range test {
		if resp.Estimates[i] != m.Estimate(z.R) {
			t.Fatalf("estimate %d drifted from direct call", i)
		}
	}

	// Single-query form.
	b := test[0].R.(geom.Box)
	body, _ = json.Marshal(estimateRequest{Query: &wireQuery{Lo: b.Lo, Hi: b.Hi}})
	resp = estimateResponse{}
	if code := doJSON(t, h, "POST", "/v1/estimate", body, &resp); code != 200 {
		t.Fatalf("single estimate: HTTP %d", code)
	}
	if resp.Estimate == nil || *resp.Estimate != m.Estimate(test[0].R) {
		t.Fatalf("single estimate drifted: %+v", resp)
	}

	// Error paths.
	cases := []struct {
		name string
		body string
		want int
	}{
		{"unknown model", `{"model":"nope","query":{"lo":[0,0],"hi":[1,1]}}`, 404},
		{"no queries", `{}`, 400},
		{"both forms", `{"query":{"lo":[0,0],"hi":[1,1]},"queries":[{"lo":[0,0],"hi":[1,1]}]}`, 400},
		{"dimension mismatch", `{"query":{"lo":[0],"hi":[1]}}`, 400},
		{"mixed class fields", `{"query":{"lo":[0,0]}}`, 400},
		{"unknown field", `{"quer":{"lo":[0,0],"hi":[1,1]}}`, 400},
		{"not json", `hello`, 400},
	}
	for _, c := range cases {
		if code := doJSON(t, h, "POST", "/v1/estimate", []byte(c.body), nil); code != c.want {
			t.Fatalf("%s: HTTP %d, want %d", c.name, code, c.want)
		}
	}
}

func TestEstimateNonBoxClasses(t *testing.T) {
	train, _ := fixture(t, 60, 5)
	m := trainModel(t, train)
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", m)
	h := s.Handler()

	half := geom.NewHalfspace(geom.Point{1, -1}, 0.1)
	ball := geom.NewBall(geom.Point{0.4, 0.6}, 0.2)
	body := `{"queries":[{"a":[1,-1],"b":0.1},{"center":[0.4,0.6],"radius":0.2}]}`
	var resp estimateResponse
	if code := doJSON(t, h, "POST", "/v1/estimate", []byte(body), &resp); code != 200 {
		t.Fatalf("HTTP %d", code)
	}
	if resp.Estimates[0] != m.Estimate(half) || resp.Estimates[1] != m.Estimate(ball) {
		t.Fatalf("non-box estimates drifted: %v", resp.Estimates)
	}
}

func TestModelUploadAndDownload(t *testing.T) {
	train, test := fixture(t, 60, 10)
	m := trainModel(t, train)
	s := NewServer(Options{})
	h := s.Handler()

	var st modelStatus
	if code := doJSON(t, h, "PUT", "/v1/models/power", envelopeOf(t, m), &st); code != 200 {
		t.Fatalf("upload: HTTP %d", code)
	}
	if st.Type != "quadhist" || st.Generation != 1 || st.Buckets != m.NumBuckets() {
		t.Fatalf("upload status: %+v", st)
	}

	// Download must round-trip to identical estimates.
	req := httptest.NewRequest("GET", "/v1/models/power", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("download: HTTP %d", w.Code)
	}
	got, err := modelio.Load(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, z := range test {
		if got.Estimate(z.R) != m.Estimate(z.R) {
			t.Fatal("downloaded model drifted")
		}
	}

	// Uploads accept binary snapshots too (the format is sniffed), with
	// estimates identical to the JSON-uploaded model's.
	var bbuf bytes.Buffer
	if err := modelio.SaveBinary(&bbuf, m); err != nil {
		t.Fatal(err)
	}
	var bst modelStatus
	if code := doJSON(t, h, "PUT", "/v1/models/powerbin", bbuf.Bytes(), &bst); code != 200 {
		t.Fatalf("binary upload: HTTP %d", code)
	}
	if bst.Type != "quadhist" || bst.Buckets != m.NumBuckets() {
		t.Fatalf("binary upload status: %+v", bst)
	}
	for _, z := range test {
		zb := z.R.(geom.Box)
		body, _ := json.Marshal(estimateRequest{Model: "powerbin", Query: &wireQuery{Lo: zb.Lo, Hi: zb.Hi}})
		var resp estimateResponse
		if code := doJSON(t, h, "POST", "/v1/estimate", body, &resp); code != 200 {
			t.Fatalf("estimate on binary-uploaded model: HTTP %d", code)
		}
		if resp.Estimate == nil || *resp.Estimate != m.Estimate(z.R) {
			t.Fatal("binary-uploaded model drifted")
		}
	}

	// Decode failures map to 400, missing models to 404.
	cases := []struct {
		name string
		body string
		want int
	}{
		{"truncated", string(envelopeOf(t, m)[:40]), 400},
		{"wrong version", `{"version":9,"type":"quadhist","payload":{}}`, 400},
		{"unknown type", `{"version":1,"type":"neuralnet","payload":{}}`, 400},
		{"invalid weights", `{"version":1,"type":"ptshist","payload":{"Points":[[0.5,0.5]],"Weights":[0.2]}}`, 400},
	}
	for _, c := range cases {
		if code := doJSON(t, h, "PUT", "/v1/models/bad", []byte(c.body), nil); code != c.want {
			t.Fatalf("%s: HTTP %d, want %d", c.name, code, c.want)
		}
	}
	if code := doJSON(t, h, "GET", "/v1/models/bad", nil, nil); code != 404 {
		t.Fatalf("download of never-registered model: HTTP %d, want 404", code)
	}
}

// TestFeedbackValidation pins the feedback route's answers and its
// refusals' messages, in the order they are checked: the body, then "no
// observations given", then for each observation in turn its query
// fault before its label.
func TestFeedbackValidation(t *testing.T) {
	train, _ := fixture(t, 40, 5)
	s := NewServer(Options{FeedbackCapacity: 2})
	s.Registry().Set(DefaultModelName, "test", trainModel(t, train))
	h := s.Handler()

	const ok = `{"lo":[0,0],"hi":[1,1],"sel":0.5}`
	cases := []struct {
		name string
		body string
		want int
		msg  string // the refusal's error text
	}{
		{"ok", `{"observations":[{"lo":[0,0],"hi":[0.5,0.5],"sel":0.2}]}`, 200, ""},
		{"unknown model", `{"model":"nope","observations":[` + ok + `]}`, 404, `model "nope" not registered`},
		{"empty", `{"observations":[]}`, 400, "no observations given"},
		{"null observations", `{"observations":null}`, 400, "no observations given"},
		{"null body", `null`, 400, "no observations given"},
		{"missing sel", `{"observations":[{"lo":[0,0],"hi":[1,1]}]}`, 400, "observation 0: sel must be in [0,1]"},
		{"null sel", `{"observations":[{"lo":[0,0],"hi":[1,1],"sel":0.5,"sel":null}]}`, 400, "observation 0: sel must be in [0,1]"},
		{"sel out of range", `{"observations":[{"lo":[0,0],"hi":[1,1],"sel":1.5}]}`, 400, "observation 0: sel must be in [0,1]"},
		{"negative sel", `{"observations":[` + ok + `,{"lo":[0,0],"hi":[1,1],"sel":-1e-9}]}`, 400, "observation 1: sel must be in [0,1]"},
		{"bad query", `{"observations":[{"sel":0.5}]}`, 400, "observation 0: " + errNoClass.Error()},
		{"null observation", `{"observations":[` + ok + `,null]}`, 400, "observation 1: " + errNoClass.Error()},
		{"query before sel", `{"observations":[{"lo":[0,0],"sel":2},` + ok + `]}`, 400, "observation 0: " + errBoxDims.Error()},
		{"unknown field", `{"observations":[` + ok + `],"extra":1}`, 400, `invalid request body: unknown field "extra"`},
		{"trailing comma", `{"observations":[` + ok + `,]}`, 400, `invalid request body: expected "{" at offset 51`},
		{"type", `{"observations":[{"lo":[0,0],"hi":[1,1],"sel":0.5,"b":[1]}]}`, 400, `invalid request body: expected number at offset 54`},
		{"truncated", `{"observations":[` + ok, 400, "invalid request body: unexpected end of request body"},
	}
	for _, c := range cases {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/feedback", strings.NewReader(c.body)))
		var resp apiError
		if w.Code != c.want || c.msg != "" && (json.Unmarshal(w.Body.Bytes(), &resp) != nil || resp.Error != c.msg) {
			t.Errorf("%s: HTTP %d %q, want %d %q", c.name, w.Code, w.Body.String(), c.want, c.msg)
		}
	}
	if total, _, _ := s.feedback.Totals(); total != 1 {
		t.Fatalf("%d observations buffered, want the one accepted", total)
	}

	// Overflow reports backpressure: capacity 2, one already buffered.
	body := `{"observations":[{"lo":[0,0],"hi":[1,1],"sel":0.9},{"lo":[0,0],"hi":[0.1,0.1],"sel":0.01}]}`
	var resp feedbackResponse
	if code := doJSON(t, h, "POST", "/v1/feedback", []byte(body), &resp); code != 200 {
		t.Fatalf("overflow feedback: HTTP %d", code)
	}
	if resp.Accepted != 2 || resp.Dropped != 1 {
		t.Fatalf("backpressure: %+v, want accepted=2 dropped=1", resp)
	}
}

// TestFeedbackCopiesObservationsOut: observations decoded into a pooled
// scratch are copied out before the ring keeps them, so later requests
// that reuse the scratch do not change buffered feedback.
func TestFeedbackCopiesObservationsOut(t *testing.T) {
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", unitModel(1))
	h := s.Handler()
	first := `{"observations":[{"lo":[0.1,0.2],"hi":[0.3,0.4],"sel":0.5},{"a":[1,2],"b":0.25,"sel":0.125},{"center":[0.5,0.5],"radius":0.2,"sel":1}]}`
	if code := doJSON(t, h, "POST", "/v1/feedback", []byte(first), nil); code != http.StatusOK {
		t.Fatalf("feedback: HTTP %d", code)
	}
	for i := 0; i < 20; i++ {
		other := `{"observations":[{"lo":[0.9,0.9],"hi":[1,1],"sel":0},{"a":[3,3],"b":9,"sel":0},{"center":[0,0],"radius":0.9,"sel":0}]}`
		doJSON(t, h, "POST", "/v1/feedback", []byte(other), nil)
		doJSON(t, h, "POST", "/v1/estimate", []byte(`{"queries":[{"lo":[0.7,0.7],"hi":[0.8,0.8]},{"a":[5,5],"b":5}]}`), nil)
	}
	got, _ := s.feedback.Snapshot(DefaultModelName)
	want := []core.LabeledQuery{
		{R: geom.NewBox(geom.Point{0.1, 0.2}, geom.Point{0.3, 0.4}), Sel: 0.5},
		{R: geom.NewHalfspace(geom.Point{1, 2}, 0.25), Sel: 0.125},
		{R: geom.NewBall(geom.Point{0.5, 0.5}, 0.2), Sel: 1},
	}
	if !reflect.DeepEqual(got[:3], want) {
		t.Fatalf("buffered %v, want %v", got[:3], want)
	}
}

func TestRetrainGuardRejectsRegression(t *testing.T) {
	train, _ := fixture(t, 200, 5)
	m := trainModel(t, train)
	s := NewServer(Options{MinRetrainSamples: 10, RetrainTolerance: 0})
	s.Registry().Set(DefaultModelName, "test", m)

	// Adversarial feedback: constant wrong labels. The candidate trained
	// on them scores worse than the serving model on the validation
	// stripe (which carries the same wrong labels is the risk — so use
	// labels the serving model already fits well on train, badly shuffled).
	var obs []core.LabeledQuery
	for i, z := range train[:50] {
		obs = append(obs, core.LabeledQuery{R: z.R, Sel: train[(i+25)%50].Sel})
	}
	s.feedback.Add(DefaultModelName, obs)
	results := s.RetrainNow()
	if len(results) != 1 {
		t.Fatalf("%d retrain results, want 1", len(results))
	}
	res := results[0]
	if res.Err != "" {
		t.Fatalf("retrain error: %s", res.Err)
	}
	if res.Swapped && res.CandidateRMS > res.CurrentRMS {
		t.Fatalf("regressing candidate swapped in: %+v", res)
	}
	// Whatever happened, the serving entry must still be coherent.
	if e, ok := s.Registry().Get(DefaultModelName); !ok || e.Model == nil {
		t.Fatal("registry lost the model")
	}

	// A second pass with no new feedback must be a no-op.
	if results := s.RetrainNow(); len(results) != 0 {
		t.Fatalf("retrain without fresh feedback ran: %+v", results)
	}
}

// TestRetrainSurvivesDimensionFaults runs the real serve loop with a fast
// retrain tick, so a panic in the retrain goroutine kills the test binary.
// Wrong-dimension feedback must be refused at the door on both feedback
// transports, and feedback that a dimension-changing upload strands in the
// ring must be left out of the next refit instead of crashing it.
func TestRetrainSurvivesDimensionFaults(t *testing.T) {
	train, _ := fixture(t, 60, 1)
	s := NewServer(Options{MinRetrainSamples: 4, RetrainInterval: 2 * time.Millisecond})
	s.Registry().Set(DefaultModelName, "test", trainModel(t, train))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	binAddr, stopBin := startBinServer(t, s)
	defer stopBin()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 10 * time.Second}
	ticks := func() { time.Sleep(25 * time.Millisecond) } // about ten retrain passes

	// One 1-D observation for the 2-D model is refused by index, over JSON
	// and over a binary frame alike.
	const want = `observation 0: dimension 1, model "default" has dimension 2`
	code, body := post(t, client, "POST", base+"/v1/feedback",
		[]byte(`{"observations":[{"lo":[0.1],"hi":[0.5],"sel":0.3}]}`))
	var apiErr apiError
	if err := json.Unmarshal(body, &apiErr); err != nil || code != http.StatusBadRequest || apiErr.Error != want {
		t.Fatalf("1-D JSON feedback: HTTP %d %s, want 400 %q", code, body, want)
	}
	c, err := wirebin.Dial(binAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	oneD := []geom.Range{geom.Box{Lo: geom.Point{0.1}, Hi: geom.Point{0.5}}}
	if _, _, _, err := c.Feedback("", oneD, []float64{0.3}); err == nil || !strings.HasSuffix(err.Error(), "code 2: "+want) {
		t.Fatalf("1-D binary feedback: %v, want code 2 %q", err, want)
	}
	ticks()

	// Valid 2-D feedback is accepted and refit; then an upload changes the
	// model's dimension, stranding that feedback in the ring. One fresh 3-D
	// observation makes the retrainer look again: what fits the new model
	// is too little to refit on, and the stranded rest must not be used.
	if code, body := post(t, client, "POST", base+"/v1/feedback", feedbackBody(t, train[:8])); code != http.StatusOK {
		t.Fatalf("2-D feedback: HTTP %d %s", code, body)
	}
	ticks()
	train3, _ := workload.NewGenerator(dataset.Power(3000, 1).Project([]int{0, 1, 2}), 5).
		TrainTest(workload.Spec{Class: workload.OrthogonalRange, Centers: workload.DataDriven}, 100, 0)
	m3, err := hist.New(3, 200).Train(train3)
	if err != nil {
		t.Fatal(err)
	}
	if code, body := post(t, client, "PUT", base+"/v1/models/default", envelopeOf(t, m3)); code != http.StatusOK {
		t.Fatalf("3-D upload: HTTP %d %s", code, body)
	}
	if code, body := post(t, client, "POST", base+"/v1/feedback",
		[]byte(`{"observations":[{"lo":[0.1,0.1,0.1],"hi":[0.5,0.5,0.5],"sel":0.1}]}`)); code != http.StatusOK {
		t.Fatalf("3-D feedback: HTTP %d %s", code, body)
	}
	ticks()
	if res := s.RetrainNow(); len(res) != 0 {
		t.Fatalf("retrain refit the 3-D model on 2-D feedback: %+v", res)
	}
	if e, _ := s.Registry().Get(DefaultModelName); e.Source != "upload" {
		t.Fatalf("the upload was replaced by a %s refit on stranded feedback", e.Source)
	}
}

func TestStatz(t *testing.T) {
	train, _ := fixture(t, 40, 5)
	s := NewServer(Options{})
	s.Registry().Set("power", "test", trainModel(t, train))
	h := s.Handler()

	for i := 0; i < 5; i++ {
		body := `{"model":"power","query":{"lo":[0,0],"hi":[0.5,0.5]}}`
		if code := doJSON(t, h, "POST", "/v1/estimate", []byte(body), nil); code != 200 {
			t.Fatalf("estimate: HTTP %d", code)
		}
	}
	doJSON(t, h, "POST", "/v1/estimate", []byte(`broken`), nil)
	if code := doJSON(t, h, "GET", "/healthz", nil, nil); code != 200 {
		t.Fatal("healthz not ok")
	}

	const route = `{route="POST /v1/estimate"}`
	for _, c := range []struct {
		series string
		want   float64
	}{
		{"selserve_http_requests_total" + route, 6},
		{`selserve_http_errors_total{class="4xx",route="POST /v1/estimate"}`, 1},
		{`selserve_http_errors_total{class="5xx",route="POST /v1/estimate"}`, 0},
		{"selserve_http_request_seconds_count" + route, 6},
	} {
		if got := metricValue(t, h, c.series); got != c.want {
			t.Fatalf("%s = %v, want %v", c.series, got, c.want)
		}
	}

	// /statz holds only what is not a number series: the model inventory
	// and the retrainer's last outcome (none yet).
	var raw map[string]any
	if code := doJSON(t, h, "GET", "/statz", nil, &raw); code != 200 {
		t.Fatalf("statz: HTTP %d", code)
	}
	retrainer, ok := raw["retrainer"].(map[string]any)
	if len(raw) != 2 || raw["models"] == nil || !ok {
		t.Fatalf("statz body %v, want exactly models and retrainer", raw)
	}
	for k := range retrainer {
		if k != "last_error" && k != "last" {
			t.Fatalf("statz retrainer has %q, want only last_error and last", k)
		}
	}
	var st statzResponse
	doJSON(t, h, "GET", "/statz", nil, &st)
	if len(st.Models) != 1 || st.Models[0].Name != "power" || st.Models[0].Type != "quadhist" {
		t.Fatalf("model inventory: %+v", st.Models)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := NewServer(Options{})
	h := s.Handler()
	if code := doJSON(t, h, "GET", "/v1/estimate", nil, nil); code != 405 {
		t.Fatalf("GET estimate: HTTP %d, want 405", code)
	}
	if code := doJSON(t, h, "POST", "/nope", nil, nil); code != 404 {
		t.Fatalf("unknown route: HTTP %d, want 404", code)
	}
}

func TestTrainerForAllFamilies(t *testing.T) {
	train, _ := fixture(t, 40, 5)
	for _, orig := range []core.Trainer{
		hist.New(2, 200),
		ptshist.New(2, 100, 3),
		quicksel.New(2, 5),
		isomer.New(2),
	} {
		m, err := orig.Train(train)
		if err != nil {
			t.Fatalf("%s: %v", orig.Name(), err)
		}
		tr, err := trainerFor(m, 40, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", orig.Name(), err)
		}
		if tr.Name() != orig.Name() {
			t.Fatalf("a %s model got a %s retrainer", orig.Name(), tr.Name())
		}
		if _, err := tr.Train(train); err != nil {
			t.Fatalf("%s retrain: %v", orig.Name(), err)
		}
	}
	// Unsupported/empty models degrade to an error, not a panic.
	if _, err := trainerFor(&hist.Model{}, 10, 1, nil); err == nil ||
		!strings.Contains(err.Error(), "dimensionality") {
		t.Fatalf("empty model: %v", err)
	}
}
