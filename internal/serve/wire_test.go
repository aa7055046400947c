package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/load"
	"repro/internal/rng"
)

// TestAppendJSONFloatMatchesEncodingJSON pins the hand-rolled float
// encoder to encoding/json's exact output across magnitude regimes, so
// swapping the encoder never changes a single response byte.
func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	vals := []float64{
		0, 1, -1, 0.5, 0.25, 1.0 / 3.0, 0.1, 0.2, 0.1 + 0.2, math.Pi,
		1e-6, 9.999e-7, 1e-7, 1e-9, 2.5e-13, 1e-300, 5e-324,
		1e20, 1e21, 1.5e21, 1e22, math.MaxFloat64, 123456.789,
	}
	r := rng.New(7)
	for i := 0; i < 500; i++ {
		vals = append(vals, r.Float64())
		vals = append(vals, r.Float64()*math.Pow(10, float64(i%40-20)))
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got := appendJSONFloat(nil, v)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendJSONFloat(%g) = %s, encoding/json says %s", v, got, want)
		}
	}
}

// TestAppendEstimateResponseMatchesEncodingJSON pins the full response
// encoder to the bytes json.Encoder produced for estimateResponse before
// the hand-rolled path existed.
func TestAppendEstimateResponseMatchesEncodingJSON(t *testing.T) {
	single := 0.25
	cases := []estimateResponse{
		{Model: "default", Generation: 1, Estimate: &single},
		{Model: `we"ird\name`, Generation: 42, Estimates: []float64{0, 1, 0.125, 3e-9}},
		{Model: "batch", Generation: 7, Estimates: []float64{0.5}},
	}
	for _, resp := range cases {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(resp); err != nil {
			t.Fatal(err)
		}
		ests := resp.Estimates
		isSingle := resp.Estimate != nil
		if isSingle {
			ests = []float64{*resp.Estimate}
		}
		got := appendEstimateResponse(nil, []byte(resp.Model), resp.Generation, ests, isSingle)
		if !bytes.Equal(got, buf.Bytes()) {
			t.Fatalf("hand-rolled response %q, encoding/json produced %q", got, buf.Bytes())
		}
	}
}

// randomWireQuery draws one wire query across the three classes; bad
// selects an invalid variant so error paths agree too.
func randomWireQuery(r *rng.RNG, d int, bad bool) wireQuery {
	pt := func(n int) []float64 {
		p := make([]float64, n)
		for i := range p {
			p[i] = r.Float64()*2 - 0.5
		}
		return p
	}
	f := func(v float64) *float64 { return &v }
	switch r.IntN(3) {
	case 0:
		if bad {
			return wireQuery{Lo: pt(d)} // missing hi
		}
		lo, hi := pt(d), pt(d)
		for i := range hi {
			hi[i] = lo[i] + r.Float64()*0.5
		}
		return wireQuery{Lo: lo, Hi: hi}
	case 1:
		if bad {
			return wireQuery{A: pt(d)} // missing b
		}
		return wireQuery{A: pt(d), B: f(r.Float64())}
	default:
		if bad {
			return wireQuery{Center: pt(d), Radius: f(-0.1)}
		}
		return wireQuery{Center: pt(d), Radius: f(r.Float64() * 0.5)}
	}
}

// TestWireParserMatchesEncodingJSON is the decode property test: any
// request the old encoding/json path accepted parses to identical
// geometry (and any per-query error it reported is reported identically)
// by the hand-rolled parser.
func TestWireParserMatchesEncodingJSON(t *testing.T) {
	r := rng.New(1234)
	names := []string{"", "default", "tenant-7", `esc"aped`, "uni\tcode"}
	for trial := 0; trial < 200; trial++ {
		d := 1 + r.IntN(4)
		req := estimateRequest{Model: names[r.IntN(len(names))]}
		n := 1 + r.IntN(6)
		single := n == 1 && r.IntN(2) == 0
		var wqs []wireQuery
		for i := 0; i < n; i++ {
			wqs = append(wqs, randomWireQuery(r, d, r.IntN(4) == 0))
		}
		if single {
			req.Query = &wqs[0]
		} else {
			req.Queries = wqs
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}

		sc := new(estimateScratch)
		sc.body = body
		sc.resetWire()
		hasQuery, nQueries, perr := parseEstimateRequest(sc)
		if perr != nil {
			t.Fatalf("trial %d: parse error %v on %s", trial, perr, body)
		}
		if hasQuery != single || nQueries != len(req.Queries) {
			t.Fatalf("trial %d: form flags (%v,%d), want (%v,%d)", trial, hasQuery, nQueries, single, len(req.Queries))
		}
		if string(sc.name) != req.Model {
			t.Fatalf("trial %d: model %q, want %q", trial, sc.name, req.Model)
		}
		if len(sc.ranges) != n {
			t.Fatalf("trial %d: %d ranges, want %d", trial, len(sc.ranges), n)
		}
		for i, wq := range wqs {
			want, werr := wq.toRange()
			got, gerr := sc.ranges[i], sc.qerrs[i]
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("trial %d query %d: error %v, want %v", trial, i, gerr, werr)
			}
			if werr != nil {
				if gerr.Error() != werr.Error() {
					t.Fatalf("trial %d query %d: error %q, want %q", trial, i, gerr, werr)
				}
				continue
			}
			var gv geom.Range
			switch g := got.(type) {
			case *geom.Box:
				gv = *g
			case *geom.Halfspace:
				gv = *g
			case *geom.Ball:
				gv = *g
			default:
				t.Fatalf("trial %d query %d: unexpected range type %T", trial, i, got)
			}
			if !reflect.DeepEqual(gv, want) {
				t.Fatalf("trial %d query %d: parsed %#v, want %#v", trial, i, gv, want)
			}
		}
	}
}

// TestWireParserEdgeCases pins grammar corners the property test cannot
// reach: null fields, escapes in names, duplicate-free whitespace, and
// transport-level rejections.
func TestWireParserEdgeCases(t *testing.T) {
	parse := func(body string) (*estimateScratch, bool, int, error) {
		sc := new(estimateScratch)
		sc.body = []byte(body)
		sc.resetWire()
		hq, nq, err := parseEstimateRequest(sc)
		return sc, hq, nq, err
	}

	// null query/queries/model are absent, like encoding/json omitempty.
	sc, hq, nq, err := parse(`{"model":null,"query":null,"queries":null}`)
	if err != nil || hq || nq != 0 || len(sc.name) != 0 {
		t.Fatalf("null fields: hq=%v nq=%d err=%v", hq, nq, err)
	}
	// "lo": null leaves the box class unselected.
	sc, _, _, err = parse(`{"query":{"lo":null,"a":[1],"b":0.5}}`)
	if err != nil || sc.qerrs[0] != nil {
		t.Fatalf("null lo: err=%v qerr=%v", err, sc.qerrs[0])
	}
	if _, ok := sc.ranges[0].(*geom.Halfspace); !ok {
		t.Fatalf("null lo: parsed %T, want *geom.Halfspace", sc.ranges[0])
	}
	// Escaped model names decode.
	sc, _, _, err = parse(`{"model":"a\"b\\cA\n"}`)
	if err != nil || string(sc.name) != "a\"b\\cA\n" {
		t.Fatalf("escaped model: %q err=%v", sc.name, err)
	}
	// Scientific-notation coordinates.
	sc, _, _, err = parse(`{"query":{"lo":[-1e-3,2E2],"hi":[1.5e0,3e2]}}`)
	if err != nil || sc.qerrs[0] != nil {
		t.Fatalf("scientific notation: err=%v qerr=%v", err, sc.qerrs[0])
	}
	if b := sc.ranges[0].(*geom.Box); b.Lo[0] != -1e-3 || b.Lo[1] != 200 || b.Hi[0] != 1.5 || b.Hi[1] != 300 {
		t.Fatalf("scientific notation parsed %v", sc.ranges[0])
	}
	// Transport-level failures.
	for _, bad := range []string{
		``, `hello`, `{`, `{"model"}`, `{"model":}`, `{"query":{"lo":[}}`,
		`{"nope":1}`, `{"query":{"zz":[1]}}`, `{"query":{"lo":[1,]}}`,
		`{"queries":[{"lo":[0],"hi":[1]}`, `{"model":"x`,
	} {
		if _, _, _, err := parse(bad); err == nil {
			t.Fatalf("parse(%q) accepted, want error", bad)
		}
	}
	// Empty queries array parses to zero queries (the handler 400s later).
	if _, hq, nq, err := parse(`{"queries":[]}`); err != nil || hq || nq != 0 {
		t.Fatalf("empty queries: hq=%v nq=%d err=%v", hq, nq, err)
	}
}

// reusableBody lets one http.Request replay the same payload without
// allocating a fresh reader per iteration.
type reusableBody struct{ *bytes.Reader }

func (reusableBody) Close() error { return nil }

// discardWriter is a minimal ResponseWriter whose header map is reused
// across requests, so response writing itself is measurable at 0 allocs.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }

// duplexWriter is a discardWriter that supports what the stream handler
// asks of net/http's writer: full duplex and flushing.
type duplexWriter struct{ discardWriter }

func (*duplexWriter) EnableFullDuplex() error { return nil }
func (*duplexWriter) Flush()                  {}

// TestEstimateHandlerZeroAlloc is the end-to-end allocation gate for the
// estimate request path (the TestObsDisabledAllocs pattern applied to the
// handler): mux dispatch, instrumentation, body read, decode, estimate,
// encode — 0 allocs/op at steady state, for one query, a batch and a
// 64-line stream on the server's default configuration.
func TestEstimateHandlerZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the gate runs without -race")
	}
	train, test := fixture(t, 60, 1)
	m := trainModel(t, train)
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", m)
	h := s.Handler()

	// gate warms the pools, proves the path serves 200s, then measures.
	gate := func(t *testing.T, h http.Handler, path string, payload []byte) {
		t.Helper()
		rd := bytes.NewReader(payload)
		r := httptest.NewRequest("POST", path, rd)
		r.Body = reusableBody{rd}
		w := &duplexWriter{discardWriter{h: make(http.Header)}}
		for i := 0; i < 8; i++ {
			rd.Reset(payload)
			w.status = 0
			h.ServeHTTP(w, r)
			if w.status != http.StatusOK {
				t.Fatalf("warmup request: HTTP %d", w.status)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			rd.Reset(payload)
			h.ServeHTTP(w, r)
		})
		if allocs != 0 {
			t.Fatalf("%s request path allocates %.1f objects/op, want 0", path, allocs)
		}
	}
	marshal := func(t *testing.T, req estimateRequest) []byte {
		payload, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}

	b := test[0].R.(geom.Box)
	gate(t, h, "/v1/estimate", marshal(t, estimateRequest{Query: &wireQuery{Lo: b.Lo, Hi: b.Hi}}))

	t.Run("batch", func(t *testing.T) {
		qs := make([]wireQuery, 16)
		for i := range qs {
			f := float64(i) / 32
			qs[i] = wireQuery{Lo: []float64{f, f / 2}, Hi: []float64{f + 0.4, f + 0.5}}
		}
		gate(t, h, "/v1/estimate", marshal(t, estimateRequest{Queries: qs}))
	})

	t.Run("stream", func(t *testing.T) {
		qs := load.EventQueries(load.Event{Class: load.ClassStream, Seed: 3})
		gate(t, h, "/v1/estimate/stream?model=default", load.StreamBody(qs))
	})
}

// TestWireParserSurrogatePairs pins \uXXXX handling to encoding/json:
// valid high/low pairs combine into one rune, unpaired halves decode to
// U+FFFD, and a high surrogate followed by a non-surrogate escape only
// consumes itself. encoding/json is the oracle for every case.
func TestWireParserSurrogatePairs(t *testing.T) {
	// The escapes are assembled from a spelled-out backslash rune so the
	// test source itself contains no escape sequences that editors or
	// formatters might normalize.
	bs := string(rune(92))
	hi, lo := bs+"uD83D", bs+"uDE00"
	cases := []string{
		hi + lo,                           // valid escaped pair: one emoji
		hi,                                // lone high surrogate
		lo,                                // lone low surrogate
		hi + "x",                          // high surrogate, then a literal byte
		hi + bs + "u0041",                 // high surrogate, then a non-surrogate escape
		hi + hi + lo,                      // lone high, then a valid pair
		lo + hi + lo + "ok",               // low first, then a valid pair, then literals
		"A" + bs + "u00e9" + bs + "u4e2d", // BMP escapes untouched by pairing
		"pre" + hi + lo + "post",          // pair embedded in literal text
		"literal \U0001F600 text",         // raw UTF-8 emoji passes through unescaped
	}
	for _, esc := range cases {
		body := `{"model":"` + esc + `"}`
		var want struct {
			Model string `json:"model"`
		}
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatalf("oracle rejected %q: %v", body, err)
		}
		sc := new(estimateScratch)
		sc.body = []byte(body)
		sc.resetWire()
		if _, _, err := parseEstimateRequest(sc); err != nil {
			t.Errorf("parse(%q): %v", body, err)
			continue
		}
		if got := string(sc.name); got != want.Model {
			t.Errorf("parse(%q) name = %q, want %q (per encoding/json)", body, got, want.Model)
		}
	}

	// Truncated escapes at end of input are transport errors.
	for _, bad := range []string{`{"model":"\u12`, `{"model":"\uD83D\uDE`, `{"model":"\uZZZZ"}`} {
		sc := new(estimateScratch)
		sc.body = []byte(bad)
		sc.resetWire()
		if _, _, err := parseEstimateRequest(sc); err == nil {
			t.Errorf("parse(%q) accepted, want error", bad)
		}
	}
}

// TestWireParserExponentFloats pins the codec's number grammar to
// encoding/json's. Every form json.Unmarshal accepts into a float64,
// including those json.Marshal never emits (uppercase E, explicit +,
// subnormals, extreme exponents), parses to the same bits; every form it
// rejects (a leading '+' or zero, a bare '.', a dangling exponent) is
// refused by the parser, by /v1/estimate with a 400 and by the stream
// with an error line.
func TestWireParserExponentFloats(t *testing.T) {
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", unitModel(1))
	h := s.Handler()
	cases := []string{
		"1e5", "1E5", "1e+5", "1e-5", "2.5e3", "-1.25E-2",
		"0.0", "-0", "1e308", "-1e308", "5e-324", "4.9e-324",
		"123456789.123456789e-9", "1E+2", "0.5e-3", "1e05",
		"+0.1", ".5", "1.", "01", "-01", "1.e2",
		"1e", "1e+", "--1", "1.2.3", "0x10", "-", "1e400",
	}
	for _, f := range cases {
		var want float64
		werr := json.Unmarshal([]byte(f), &want)

		sc := new(estimateScratch)
		sc.body = []byte(`{"query":{"lo":[` + f + `,0],"hi":[1,1]}}`)
		sc.resetWire()
		_, _, perr := parseEstimateRequest(sc)
		if (perr == nil) != (werr == nil) {
			t.Errorf("parse(%s): error %v, encoding/json says %v", f, perr, werr)
			continue
		}
		if werr == nil {
			got := sc.ranges[0].(*geom.Box).Lo[0]
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("parse(%s) = %v (bits %x), want %v (bits %x)",
					f, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}

		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/estimate", bytes.NewReader(sc.body)))
		wantCode := http.StatusBadRequest
		if werr == nil {
			wantCode = http.StatusOK
		}
		if w.Code != wantCode {
			t.Errorf("/v1/estimate with %s: HTTP %d, want %d", f, w.Code, wantCode)
		}

		w = httptest.NewRecorder()
		line := `{"lo":[` + f + `,0],"hi":[1,1]}` + "\n"
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/estimate/stream", strings.NewReader(line)))
		var rec struct {
			Estimate *float64
			Error    string
		}
		if err := json.Unmarshal(w.Body.Bytes(), &rec); w.Code != http.StatusOK || err != nil {
			t.Errorf("stream with %s: HTTP %d %q (%v)", f, w.Code, w.Body.String(), err)
		} else if (rec.Estimate != nil) != (werr == nil) || (werr != nil && !strings.HasPrefix(rec.Error, "query 0: ")) {
			t.Errorf("stream with %s answered %q, encoding/json says %v", f, w.Body.String(), werr)
		}
	}
}

// unknownLenReader hides its concrete type from httptest.NewRequest so
// the request carries ContentLength -1, exercising the streamed-overflow
// branch of readBody rather than the declared-length rejection.
type unknownLenReader struct{ r *bytes.Reader }

func (u unknownLenReader) Read(p []byte) (int, error) { return u.r.Read(p) }

// TestReadBodyTruncation covers both MaxBodyBytes rejections: a declared
// Content-Length over the cap fails before any read, and a stream with
// unknown length is cut off as soon as the cap is crossed. A body at
// exactly the cap must reach the parser.
func TestReadBodyTruncation(t *testing.T) {
	const limit = 1 << 10
	s := NewServer(Options{MaxBodyBytes: limit})
	h := s.Handler()

	big := bytes.Repeat([]byte("x"), limit+1)

	// Declared length over the cap: rejected up front.
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/estimate", bytes.NewReader(big)))
	if w.Code != http.StatusBadRequest || !bytes.Contains(w.Body.Bytes(), []byte("request body too large")) {
		t.Fatalf("declared oversize: HTTP %d %q", w.Code, w.Body.String())
	}

	// Unknown length (chunked-style): rejected once the cap is crossed.
	w = httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/estimate", unknownLenReader{bytes.NewReader(big)})
	if req.ContentLength != -1 {
		t.Fatalf("test harness: ContentLength = %d, want -1", req.ContentLength)
	}
	h.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest || !bytes.Contains(w.Body.Bytes(), []byte("request body too large")) {
		t.Fatalf("streamed oversize: HTTP %d %q", w.Code, w.Body.String())
	}

	// Exactly at the cap: readBody succeeds and the parser sees the body
	// (the 404 proves it got past transport into model lookup).
	atLimit := append([]byte(`{"model":"nosuch","query":{"lo":[0],"hi":[1]}`), bytes.Repeat([]byte(" "), limit-46)...)
	atLimit = append(atLimit, '}')
	if len(atLimit) != limit {
		t.Fatalf("test harness: body is %d bytes, want %d", len(atLimit), limit)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/estimate", bytes.NewReader(atLimit)))
	if w.Code != http.StatusNotFound {
		t.Fatalf("at-limit body: HTTP %d %q, want 404 model-not-found", w.Code, w.Body.String())
	}
}

// TestReadBodySizedByBytesRead: a client that declares a large
// Content-Length but sends a small body must not leave a buffer of the
// declared size behind in the pooled scratch.
func TestReadBodySizedByBytesRead(t *testing.T) {
	s := NewServer(Options{})
	body := []byte(`{"query":{"lo":[0,0],"hi":[1,1]}}`)
	req := httptest.NewRequest("POST", "/v1/estimate", bytes.NewReader(body))
	req.ContentLength = 60 << 20
	sc := new(estimateScratch)
	if !s.readBody(httptest.NewRecorder(), req, sc) {
		t.Fatal("readBody rejected a body under MaxBodyBytes")
	}
	if !bytes.Equal(sc.body, body) {
		t.Fatalf("readBody read %q, want %q", sc.body, body)
	}
	if c := cap(sc.body); c >= 1<<10 {
		t.Fatalf("cap(sc.body) = %d after a %d-byte body, want under 1 KiB", c, len(body))
	}
}

// TestPooledScratchDropsOversizedBuffers: after a 2 MiB estimate body, or
// a stream batch whose coordinates alone pass the cap, the scratch the
// pool hands out keeps no buffer over maxPooledBytes.
func TestPooledScratchDropsOversizedBuffers(t *testing.T) {
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", unitModel(1))
	h := s.Handler()
	const q = `{"lo":[0.25,0.25],"hi":[0.75,0.75]}`
	n := (2 << 20) / (len(q) + 1)
	coords := strings.TrimSuffix(strings.Repeat("0.5,", 300), ",")
	line := `{"lo":[` + coords + `],"hi":[` + coords + `]}` + "\n"
	for _, c := range []struct{ path, body string }{
		{"/v1/estimate", `{"model":"default","queries":[` + strings.Repeat(q+",", n-1) + q + `]}`},
		{"/v1/estimate/stream?model=default", strings.Repeat(line, streamBatchSize)},
	} {
		// A goroutine that moves to another P between the handler's Put
		// and this Get receives a fresh scratch, so retry until the pool
		// hands back the request's own, which the parsed model name marks.
		for attempt := 0; ; attempt++ {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("POST", c.path, strings.NewReader(c.body)))
			if w.Code != http.StatusOK {
				t.Fatalf("%s: HTTP %d: %.200s", c.path, w.Code, w.Body.String())
			}
			sc := scratchPool.Get().(*estimateScratch)
			used := cap(sc.name) > 0
			v := reflect.ValueOf(sc).Elem()
			for i := 0; i < v.NumField(); i++ {
				f := v.Field(i)
				if size := f.Cap() * int(f.Type().Elem().Size()); size > maxPooledBytes {
					t.Errorf("%s: pooled scratch keeps %s at %d bytes, over %d", c.path, v.Type().Field(i).Name, size, maxPooledBytes)
				}
			}
			scratchPool.Put(sc)
			if used {
				break
			}
			if attempt == 10 {
				t.Fatalf("%s: the pool never handed back the request's scratch", c.path)
			}
		}
	}
}

// TestWireRepeatedKeys: a later value of a key replaces the earlier one
// and null clears it, for "query", "queries", "observations" and every
// query field, so the handler answers the query the body ends with.
func TestWireRepeatedKeys(t *testing.T) {
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", unitModel(1))
	h := s.Handler()
	estimate := func(body string) (int, string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/estimate", strings.NewReader(body)))
		return w.Code, w.Body.String()
	}
	for _, c := range []struct{ body, want string }{
		// The unit model answers a box with its area inside [0,1]².
		{`{"query":{"lo":[0,0],"hi":[0.5,0.5]},"query":{"lo":[0,0],"hi":[0.5,1]}}`, `"estimate":0.5}`},
		{`{"query":{"lo":[0,0],"hi":[0.5,0.5]},"query":{"a":[1,0],"b":0.5}}`, `"estimate":0.5}`},
		{`{"queries":[{"lo":[0,0],"hi":[1,1]},{"lo":[0,0],"hi":[1,1]}],"queries":[{"lo":[0,0],"hi":[0.5,0.5]}]}`, `"estimates":[0.25]}`},
		{`{"queries":[{"lo":[0,0],"hi":[1,1]}],"queries":null,"query":{"lo":[0,0],"hi":[0.5,0.5]}}`, `"estimate":0.25}`},
		{`{"query":{"lo":[0,0],"hi":[1,1]},"query":null,"queries":[{"lo":[0,0],"hi":[0.5,0.5]}]}`, `"estimates":[0.25]}`},
		{`{"query":{"lo":[0.1,0.2],"lo":null,"a":[1,0],"b":0.5}}`, `"estimate":0.5}`},
		{`{"query":{"lo":[0,0,0],"lo":[0,0],"hi":[0.5,0.5]}}`, `"estimate":0.25}`},
	} {
		code, body := estimate(c.body)
		if code != http.StatusOK || !strings.HasSuffix(body, c.want+"\n") {
			t.Errorf("%s: HTTP %d %q, want a body ending %s", c.body, code, body, c.want)
		}
	}
	// A repeated radius, cleared by null, leaves a ball without one.
	if code, body := estimate(`{"query":{"center":[0.5,0.5],"radius":0.1,"radius":null}}`); code != http.StatusBadRequest ||
		!strings.Contains(body, errBallCR.Error()) {
		t.Errorf("cleared radius: HTTP %d %q, want %q", code, body, errBallCR)
	}

	var resp feedbackResponse
	body := `{"observations":[{"lo":[0,0],"hi":[1,1],"sel":1},{"lo":[0,0],"hi":[1,1],"sel":1}],` +
		`"observations":[{"lo":[0,0],"hi":[0.5,0.5],"sel":0.3,"sel":0.25}]}`
	if code := doJSON(t, h, "POST", "/v1/feedback", []byte(body), &resp); code != http.StatusOK || resp.Accepted != 1 {
		t.Fatalf("repeated observations: HTTP %d %+v, want 1 accepted", code, resp)
	}
	got, _ := s.feedback.Snapshot(DefaultModelName)
	if len(got) != 1 || got[0].Sel != 0.25 || got[0].R.(geom.Box).Hi[0] != 0.5 {
		t.Fatalf("repeated observations buffered %v, want the last list with its last sel", got)
	}
}

// TestWireKeysMatchExactly pins the codec's one deliberate departure from
// encoding/json: keys match exactly, while encoding/json folds case and
// takes "QUERY" or "LO" for "query" and "lo".
func TestWireKeysMatchExactly(t *testing.T) {
	for _, body := range []string{
		`{"QUERY":{"lo":[0],"hi":[1]}}`,
		`{"query":{"LO":[0],"hi":[1]}}`,
		`{"Queries":[{"lo":[0],"hi":[1]}]}`,
		`{"Model":"default","query":{"lo":[0],"hi":[1]}}`,
	} {
		if err := strictDecode([]byte(body), new(estimateRequest)); err != nil {
			t.Fatalf("encoding/json refused %s: %v", body, err)
		}
		sc := new(estimateScratch)
		sc.body = []byte(body)
		sc.resetWire()
		if _, _, err := parseEstimateRequest(sc); err == nil || !strings.HasPrefix(err.Error(), "unknown field") {
			t.Errorf("parse(%s): error %v, want an unknown field", body, err)
		}
	}
	for _, body := range []string{
		`{"OBSERVATIONS":[{"lo":[0],"hi":[1],"sel":0.5}]}`,
		`{"observations":[{"lo":[0],"hi":[1],"Sel":0.5}]}`,
	} {
		if err := strictDecode([]byte(body), new(feedbackRequest)); err != nil {
			t.Fatalf("encoding/json refused %s: %v", body, err)
		}
		sc := new(estimateScratch)
		sc.body = []byte(body)
		sc.resetWire()
		if err := parseFeedbackRequest(sc); err == nil || !strings.HasPrefix(err.Error(), "unknown field") {
			t.Errorf("parse(%s): error %v, want an unknown field", body, err)
		}
	}
}
