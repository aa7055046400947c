package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// streamLines posts NDJSON lines to the stream endpoint and returns the
// response status plus decoded result lines.
func streamLines(t *testing.T, h http.Handler, path string, lines []string) (int, []map[string]any) {
	t.Helper()
	body := strings.Join(lines, "\n") + "\n"
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		return w.Code, nil
	}
	var out []map[string]any
	scan := bufio.NewScanner(bytes.NewReader(w.Body.Bytes()))
	for scan.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(scan.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scan.Text(), err)
		}
		out = append(out, rec)
	}
	return w.Code, out
}

func TestEstimateStreamEndpoint(t *testing.T) {
	train, test := fixture(t, 60, 5)
	m := trainModel(t, train)
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", m)
	s.Registry().Set("named", "test", m)
	h := s.Handler()

	// In-order results, byte-identical to direct model calls.
	var lines []string
	for _, z := range test {
		b := z.R.(geom.Box)
		q, _ := json.Marshal(wireQuery{Lo: b.Lo, Hi: b.Hi})
		lines = append(lines, string(q))
	}
	code, recs := streamLines(t, h, "/v1/estimate/stream", lines)
	if code != http.StatusOK {
		t.Fatalf("stream: HTTP %d", code)
	}
	if len(recs) != len(test) {
		t.Fatalf("%d result lines, want %d", len(recs), len(test))
	}
	for i, z := range test {
		got, ok := recs[i]["estimate"].(float64)
		if !ok || got != m.Estimate(z.R) {
			t.Fatalf("stream estimate %d = %v, want %v", i, recs[i], m.Estimate(z.R))
		}
	}

	// The model query parameter selects a registered model; unknown 404s.
	if code, _ := streamLines(t, h, "/v1/estimate/stream?model=named", lines[:1]); code != http.StatusOK {
		t.Fatalf("named model: HTTP %d", code)
	}
	if code, _ := streamLines(t, h, "/v1/estimate/stream?model=nope", lines[:1]); code != http.StatusNotFound {
		t.Fatalf("unknown model: HTTP %d, want 404", code)
	}

	// Non-box classes work over the stream too.
	half := geom.NewHalfspace(geom.Point{1, -1}, 0.1)
	code, recs = streamLines(t, h, "/v1/estimate/stream", []string{`{"a":[1,-1],"b":0.1}`})
	if code != http.StatusOK || len(recs) != 1 || recs[0]["estimate"].(float64) != m.Estimate(half) {
		t.Fatalf("halfspace stream: code=%d recs=%v", code, recs)
	}
}

func TestEstimateStreamErrorsInOrder(t *testing.T) {
	train, test := fixture(t, 60, 3)
	m := trainModel(t, train)
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", m)
	h := s.Handler()

	b := test[0].R.(geom.Box)
	good, _ := json.Marshal(wireQuery{Lo: b.Lo, Hi: b.Hi})
	lines := []string{
		string(good),
		`{"lo":[0,0]}`,        // semantic: missing hi
		``,                    // blank: skipped entirely
		`{"lo":[0],"hi":[1]}`, // dimension mismatch vs the 2-D model
		`{"zz":1}`,            // unknown field
		string(good),
	}
	code, recs := streamLines(t, h, "/v1/estimate/stream", lines)
	if code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if len(recs) != 5 {
		t.Fatalf("%d lines, want 5 (blank line skipped): %v", len(recs), recs)
	}
	want := m.Estimate(test[0].R)
	if recs[0]["estimate"].(float64) != want || recs[4]["estimate"].(float64) != want {
		t.Fatalf("good queries drifted: %v", recs)
	}
	for i, frag := range map[int]string{
		1: "query 1: box query needs lo and hi of equal positive dimension",
		2: `query 2: dimension 1, model "default" has dimension 2`,
		3: `query 3: unknown field "zz"`,
	} {
		msg, ok := recs[i]["error"].(string)
		if !ok || msg != frag {
			t.Fatalf("error line %d = %v, want %q", i, recs[i], frag)
		}
	}
}

func TestEstimateStreamBatchBoundary(t *testing.T) {
	train, test := fixture(t, 60, 1)
	m := trainModel(t, train)
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", m)
	h := s.Handler()

	// More queries than one batch, exercising the flush-and-refill path.
	n := streamBatchSize + streamBatchSize/2
	b := test[0].R.(geom.Box)
	q, _ := json.Marshal(wireQuery{Lo: b.Lo, Hi: b.Hi})
	lines := make([]string, n)
	for i := range lines {
		lines[i] = string(q)
	}
	code, recs := streamLines(t, h, "/v1/estimate/stream", lines)
	if code != http.StatusOK || len(recs) != n {
		t.Fatalf("code=%d lines=%d, want 200/%d", code, len(recs), n)
	}
	want := m.Estimate(test[0].R)
	for i, rec := range recs {
		if rec["estimate"].(float64) != want {
			t.Fatalf("estimate %d = %v, want %v", i, rec, want)
		}
	}
}

// A stream that ends within its first batch must go out in one write with
// a Content-Length, as a plain response would; flushing the HTTP response
// at the end would force chunked framing and an extra write on every short
// stream. Longer streams flush each full batch and are chunked.
func TestEstimateStreamShortIsNotChunked(t *testing.T) {
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", unitModel(1))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, n := range []int{3, streamBatchSize + 1} {
		body := strings.Repeat(`{"lo":[0,0],"hi":[0.5,0.5]}`+"\n", n)
		resp, err := http.Post(ts.URL+"/v1/estimate/stream", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || strings.Count(string(out), "\n") != n {
			t.Fatalf("n=%d: HTTP %d, %d lines, %v", n, resp.StatusCode, strings.Count(string(out), "\n"), err)
		}
		if chunked := resp.ContentLength < 0; chunked != (n > streamBatchSize) {
			t.Fatalf("n=%d: Content-Length %d, transfer encoding %v", n, resp.ContentLength, resp.TransferEncoding)
		}
	}
}

// TestEstimateStreamConcurrentWithSwaps drives several streams while
// models hot-swap underneath — the -race sweep in scripts/verify.sh runs
// this to prove the pooled per-connection state and the registry COW
// publication never tear.
func TestEstimateStreamConcurrentWithSwaps(t *testing.T) {
	train, test := fixture(t, 60, 4)
	m := trainModel(t, train)
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", m)
	h := s.Handler()

	var lines []string
	for _, z := range test {
		b := z.R.(geom.Box)
		q, _ := json.Marshal(wireQuery{Lo: b.Lo, Hi: b.Hi})
		lines = append(lines, string(q))
	}
	body := strings.Join(lines, "\n") + "\n"

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 25; it++ {
				req := httptest.NewRequest("POST", "/v1/estimate/stream", strings.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					t.Errorf("stream: HTTP %d", w.Code)
					return
				}
				if n := strings.Count(w.Body.String(), "\n"); n != len(lines) {
					t.Errorf("stream returned %d lines, want %d", n, len(lines))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; it < 50; it++ {
			s.Registry().Set(DefaultModelName, fmt.Sprintf("swap-%d", it), m)
		}
	}()
	wg.Wait()
}

// failingWriter errors every write after the first n bytes, simulating a
// client that hung up mid-stream.
type failingWriter struct {
	h       http.Header
	status  int
	allowed int
	written int
}

func (w *failingWriter) Header() http.Header { return w.h }
func (w *failingWriter) WriteHeader(c int)   { w.status = c }
func (w *failingWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.allowed {
		return 0, fmt.Errorf("client gone")
	}
	w.written += len(p)
	return len(p), nil
}

// TestEstimateStreamWriteFailureCounted pins the encode-failure contract
// to the stream endpoint: result-line and error-line write failures must
// land in selserve_encode_errors_total (and the warn log), exactly like
// /v1/estimate's writeJSON path — they used to be dropped silently.
func TestEstimateStreamWriteFailureCounted(t *testing.T) {
	train, test := fixture(t, 60, 4)
	m := trainModel(t, train)

	run := func(t *testing.T, lines []string) int64 {
		t.Helper()
		s := NewServer(Options{})
		s.Registry().Set(DefaultModelName, "test", m)
		body := strings.Join(lines, "\n") + "\n"
		req := httptest.NewRequest("POST", "/v1/estimate/stream", strings.NewReader(body))
		w := &failingWriter{h: make(http.Header)}
		s.Handler().ServeHTTP(w, req)
		return s.encodeErrs.Value()
	}

	// Enough queries to cross a batch boundary: the mid-stream bw.Flush
	// used to return without counting.
	t.Run("result lines", func(t *testing.T) {
		var lines []string
		for i := 0; i < streamBatchSize+40; i++ {
			b := test[i%len(test)].R.(geom.Box)
			lines = append(lines, fmt.Sprintf(`{"lo":[%g,%g],"hi":[%g,%g]}`, b.Lo[0], b.Lo[1], b.Hi[0], b.Hi[1]))
		}
		if got := run(t, lines); got == 0 {
			t.Fatal("result-line write failure not counted in selserve_encode_errors_total")
		}
	})

	// Enough error lines to overflow the 64KiB response buffer so the
	// error-line write itself fails; that failure used to be dropped.
	t.Run("error lines", func(t *testing.T) {
		lines := make([]string, 3000)
		for i := range lines {
			lines[i] = `{"bogus":true}`
		}
		if got := run(t, lines); got == 0 {
			t.Fatal("error-line write failure not counted in selserve_encode_errors_total")
		}
	})
}

// TestQueryParamMatchesURLQuery: the stream reads ?model= from the raw
// query as r.URL.Query().Get does, without building the map.
func TestQueryParamMatchesURLQuery(t *testing.T) {
	cases := []string{
		"", "model=a", "model=a&model=b", "x=1&model=tenant-7", "model", "model=", "=a",
		"model=a+b%20c", "mod%65l=x", "model=%zz&model=ok", "model=%4", "model=a;b&model=c",
		"a;b=c&model=d", "&&model=e&", "model=%E2%82%AC", "MODEL=x", "model%3Dx=y", "model=a=b",
	}
	r := rng.New(5)
	const alphabet = "model=&;%+2a0Fz"
	for i := 0; i < 5000; i++ {
		b := make([]byte, r.IntN(16))
		for j := range b {
			b[j] = alphabet[r.IntN(len(alphabet))]
		}
		cases = append(cases, string(b))
	}
	for _, raw := range cases {
		vals, _ := url.ParseQuery(raw) // Query() ignores the error too
		want := vals.Get("model")
		if got := queryParam(raw, "model"); got != want {
			t.Fatalf("?%s: model %q, url.ParseQuery says %q", raw, got, want)
		}
	}
}
