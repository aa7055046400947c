package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/hist"
	"repro/internal/wirebin"
)

// startBinServer serves the binary protocol on an ephemeral port and
// returns its address plus a shutdown func.
func startBinServer(t *testing.T, s *Server) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := s.ServeBin(ctx, ln); err != nil {
			t.Errorf("ServeBin: %v", err)
		}
	}()
	return ln.Addr().String(), func() {
		cancel()
		<-done
	}
}

func TestBinServerEndToEnd(t *testing.T) {
	train, test := fixture(t, 60, 8)
	m := trainModel(t, train)
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", m)
	addr, stop := startBinServer(t, s)
	defer stop()

	c, err := wirebin.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	t.Run("estimate matches model", func(t *testing.T) {
		for _, lq := range test {
			est, gen, err := c.Estimate("", lq.R)
			if err != nil {
				t.Fatal(err)
			}
			if want := m.Estimate(lq.R); math.Float64bits(est) != math.Float64bits(want) {
				t.Fatalf("estimate %v, model says %v", est, want)
			}
			if gen <= 0 {
				t.Fatalf("generation %d", gen)
			}
		}
	})

	t.Run("batch matches singles", func(t *testing.T) {
		ranges := make([]geom.Range, len(test))
		for i, lq := range test {
			ranges[i] = lq.R
		}
		ests, _, err := c.EstimateBatch(DefaultModelName, ranges, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ests) != len(ranges) {
			t.Fatalf("%d estimates for %d queries", len(ests), len(ranges))
		}
		for i, r := range ranges {
			if want := m.Estimate(r); math.Float64bits(ests[i]) != math.Float64bits(want) {
				t.Fatalf("batch[%d] = %v, want %v", i, ests[i], want)
			}
		}
	})

	t.Run("feedback accepted", func(t *testing.T) {
		ranges := []geom.Range{test[0].R, test[1].R}
		acc, dropped, gen, err := c.Feedback("", ranges, []float64{0.1, 0.9})
		if err != nil {
			t.Fatal(err)
		}
		if acc != 2 || dropped != 0 || gen <= 0 {
			t.Fatalf("accepted=%d dropped=%d gen=%d", acc, dropped, gen)
		}
		if total, _, _ := s.feedback.Totals(); total < 2 {
			t.Fatalf("feedback store saw %d observations", total)
		}
	})

	t.Run("error frames keep connection", func(t *testing.T) {
		if _, _, err := c.Estimate("no-such-model", test[0].R); err == nil ||
			!strings.Contains(err.Error(), `model "no-such-model" not registered`) {
			t.Fatalf("unknown model error: %v", err)
		}
		// The same connection must still serve.
		if _, _, err := c.Estimate("", test[0].R); err != nil {
			t.Fatalf("connection unusable after error frame: %v", err)
		}
		// Dimension mismatch is a per-frame error, not a hangup.
		bad := geom.Box{Lo: geom.Point{0.1, 0.1, 0.1}, Hi: geom.Point{0.2, 0.2, 0.2}}
		if _, _, err := c.Estimate("", bad); err == nil ||
			!strings.Contains(err.Error(), "dimension") {
			t.Fatalf("dim mismatch error: %v", err)
		}
		if _, _, err := c.Estimate("", test[0].R); err != nil {
			t.Fatalf("connection unusable after dim error: %v", err)
		}
	})

	t.Run("generation observes hot swap", func(t *testing.T) {
		_, gen0, err := c.Estimate("", test[0].R)
		if err != nil {
			t.Fatal(err)
		}
		s.Registry().Set(DefaultModelName, "swap", trainModel(t, train))
		_, gen1, err := c.Estimate("", test[0].R)
		if err != nil {
			t.Fatal(err)
		}
		if gen1 <= gen0 {
			t.Fatalf("generation did not advance across swap: %d -> %d", gen0, gen1)
		}
	})

	t.Run("pipelined responses in order", func(t *testing.T) {
		// Distinct queries → distinct estimates; responses must come back
		// in request order.
		var frames [][]byte
		var want []float64
		for _, lq := range test {
			f, err := wirebin.AppendEstimateReq(nil, nil, lq.R)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, f)
			want = append(want, m.Estimate(lq.R))
		}
		err := c.Pipeline(frames, func(i int, r *wirebin.Response) error {
			if r.Type != wirebin.FrameEstimateResp {
				t.Fatalf("response %d: frame type %#x", i, r.Type)
			}
			if math.Float64bits(r.Est) != math.Float64bits(want[i]) {
				t.Fatalf("response %d out of order: got %v, want %v", i, r.Est, want[i])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestBinJSONEquivalence is the cross-protocol property test: random
// workloads through the binary listener and the HTTP JSON handler must
// produce bit-identical estimates.
func TestBinJSONEquivalence(t *testing.T) {
	train, _ := fixture(t, 80, 1)
	m := trainModel(t, train)
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", m)
	h := s.Handler()
	addr, stop := startBinServer(t, s)
	defer stop()

	c, err := wirebin.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	rng := rand.New(rand.NewSource(42))
	jsonEstimate := func(t *testing.T, q geom.Range) float64 {
		t.Helper()
		b := q.(geom.Box)
		body, err := json.Marshal(estimateRequest{Query: &wireQuery{Lo: b.Lo, Hi: b.Hi}})
		if err != nil {
			t.Fatal(err)
		}
		var resp estimateResponse
		if code := doJSON(t, h, "POST", "/v1/estimate", body, &resp); code != http.StatusOK {
			t.Fatalf("HTTP %d", code)
		}
		return *resp.Estimate
	}

	for i := 0; i < 200; i++ {
		lo := geom.Point{rng.Float64()*2 - 0.5, rng.Float64()*2 - 0.5}
		hi := geom.Point{lo[0] + rng.Float64(), lo[1] + rng.Float64()}
		q := geom.Box{Lo: lo, Hi: hi}
		want := jsonEstimate(t, q)
		got, _, err := c.Estimate("", q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("query %d: binary %v != json %v", i, got, want)
		}
	}

	// The fault table: each fault goes out as a JSON single query, a JSON
	// batch, an NDJSON line and binary single and batch frames. Every
	// transport answers it with the same class, and the two faults the
	// estimate core raises with the same message; decode faults keep
	// codec-specific texts.
	t.Run("faults", func(t *testing.T) {
		const dimLine = `query 0: dimension 1, model "default" has dimension 2`
		faults := []struct {
			name, model, query string
			bin                geom.Range
			status             int    // JSON answer; a 404 refuses the whole stream
			code               byte   // binary error frame code
			line               string // the NDJSON error line when the stream is served
			msg                string // the core's message on JSON and binary; "" for decode faults
		}{
			{"unknown model", "nope", `{"lo":[0.1,0.1],"hi":[0.5,0.5]}`,
				geom.Box{Lo: geom.Point{0.1, 0.1}, Hi: geom.Point{0.5, 0.5}},
				http.StatusNotFound, wirebin.CodeUnknownModel, "", `model "nope" not registered`},
			{"dimension mismatch", "", `{"lo":[0.1],"hi":[0.5]}`,
				geom.Box{Lo: geom.Point{0.1}, Hi: geom.Point{0.5}},
				http.StatusBadRequest, wirebin.CodeBadQuery, dimLine, "1 of 1 queries invalid: " + dimLine},
			{"malformed query", "", `{"center":[0.5,0.5],"radius":-1}`,
				geom.Ball{Center: geom.Point{0.5, 0.5}, Radius: -1},
				http.StatusBadRequest, wirebin.CodeBadQuery, "query 0: ball query needs a non-negative radius", ""},
		}
		serve := func(path, body string) (int, []byte) {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(body)))
			return w.Code, w.Body.Bytes()
		}
		errorText := func(t *testing.T, body []byte) string {
			t.Helper()
			var e apiError
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("bad error body %q: %v", body, err)
			}
			return e.Error
		}
		for _, f := range faults {
			t.Run(f.name, func(t *testing.T) {
				model := ""
				if f.model != "" {
					model = `"model":"` + f.model + `",`
				}
				for _, body := range []string{
					`{` + model + `"query":` + f.query + `}`,
					`{` + model + `"queries":[` + f.query + `]}`,
				} {
					status, out := serve("/v1/estimate", body)
					if msg := errorText(t, out); status != f.status || (f.msg != "" && msg != f.msg) {
						t.Fatalf("JSON %s: HTTP %d %q, want %d %q", body, status, msg, f.status, f.msg)
					}
				}

				status, out := serve("/v1/estimate/stream?model="+f.model, f.query+"\n")
				if f.status == http.StatusNotFound {
					if msg := errorText(t, out); status != f.status || msg != f.msg {
						t.Fatalf("NDJSON: HTTP %d %q, want %d %q", status, msg, f.status, f.msg)
					}
				} else if msg := errorText(t, out); status != http.StatusOK || msg != f.line {
					t.Fatalf("NDJSON: HTTP %d line %q, want 200 %q", status, msg, f.line)
				}

				single, err := wirebin.AppendEstimateReq(nil, []byte(f.model), f.bin)
				if err != nil {
					t.Fatal(err)
				}
				batch, err := wirebin.AppendEstimateBatchReq(nil, []byte(f.model), []geom.Range{f.bin})
				if err != nil {
					t.Fatal(err)
				}
				err = c.Pipeline([][]byte{single, batch}, func(i int, r *wirebin.Response) error {
					if r.Type != wirebin.FrameError || r.Code != f.code || (f.msg != "" && string(r.Msg) != f.msg) {
						t.Errorf("binary frame %d: type %#x code %d %q, want code %d %q", i, r.Type, r.Code, r.Msg, f.code, f.msg)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	})

	// A stream opened after a swap answers every line, the same query
	// repeated past one batch, with the generation it pinned: generation
	// 2's bits, never the answer generation 1 gave that query.
	t.Run("stream after swap", func(t *testing.T) {
		m1, m2 := unitModel(1), unitModel(0.5)
		cs := NewServer(Options{})
		cs.Registry().Set(DefaultModelName, "test", m1)
		ch := cs.Handler()
		const query = `{"lo":[0,0],"hi":[0.5,0.5]}`
		if w, _ := postEstimate(t, ch, `{"query":`+query+`}`); w.Code != http.StatusOK {
			t.Fatalf("warm-up estimate: HTTP %d", w.Code)
		}
		cs.Registry().Set(DefaultModelName, "swap", m2)

		lines := make([]string, streamBatchSize+16)
		for i := range lines {
			lines[i] = query
		}
		req := httptest.NewRequest("POST", "/v1/estimate/stream", strings.NewReader(strings.Join(lines, "\n")+"\n"))
		w := httptest.NewRecorder()
		ch.ServeHTTP(w, req)
		if w.Code != http.StatusOK || w.Header().Get("X-Model-Generation") != "2" {
			t.Fatalf("stream: HTTP %d, generation %q, want 200 and 2", w.Code, w.Header().Get("X-Model-Generation"))
		}
		want := m2.Estimate(geom.NewBox(geom.Point{0, 0}, geom.Point{0.5, 0.5}))
		got := strings.Split(strings.TrimSuffix(w.Body.String(), "\n"), "\n")
		if len(got) != len(lines) {
			t.Fatalf("%d answer lines, want %d", len(got), len(lines))
		}
		for i, line := range got {
			var rec struct{ Estimate *float64 }
			if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Estimate == nil {
				t.Fatalf("line %d: %q (%v)", i, line, err)
			}
			if math.Float64bits(*rec.Estimate) != math.Float64bits(want) {
				t.Fatalf("line %d: estimate %v, want generation 2's %v", i, *rec.Estimate, want)
			}
		}
	})
}

// metricValue reads one series, its name with its rendered label block
// (none for an unlabeled one), from the handler's /metrics page.
func metricValue(t *testing.T, h http.Handler, name string) float64 {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no series %s", name)
	return 0
}

// TestBinFrameZeroAlloc is the binary counterpart of
// TestEstimateHandlerZeroAlloc: decode, estimate, and response encode for
// a single-estimate frame run at 0 allocs/op at steady state. It drives
// processBinFrame inline — AllocsPerRun counts process-global
// allocations, so a live client goroutine would pollute the measurement;
// the thin connection loop around it is covered by the selvet zeroalloc
// annotation sweep.
func TestBinFrameZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the gate runs without -race")
	}
	train, test := fixture(t, 60, 1)
	m := trainModel(t, train)
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", m)

	frame, err := wirebin.AppendEstimateReq(nil, nil, test[0].R)
	if err != nil {
		t.Fatal(err)
	}
	typ, payload := frame[4], frame[5:]

	st := binStatePool.Get().(*binState)
	st.sc = scratchPool.Get().(*estimateScratch)
	defer func() {
		scratchPool.Put(st.sc)
		st.sc = nil
		binStatePool.Put(st)
	}()

	for i := 0; i < 8; i++ {
		st.out = st.out[:0]
		s.processBinFrame(st, typ, payload)
		if len(st.out) == 0 || st.out[4] != wirebin.FrameEstimateResp {
			t.Fatalf("warmup frame answered with %#x", st.out[4])
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		st.out = st.out[:0]
		s.processBinFrame(st, typ, payload)
	})
	if allocs != 0 {
		t.Fatalf("binary estimate frame path allocates %.1f objects/op, want 0", allocs)
	}

	t.Run("batch", func(t *testing.T) {
		ranges := make([]geom.Range, 16)
		for i := range ranges {
			ranges[i] = test[0].R
		}
		bframe, err := wirebin.AppendEstimateBatchReq(nil, nil, ranges)
		if err != nil {
			t.Fatal(err)
		}
		btyp, bpayload := bframe[4], bframe[5:]
		for i := 0; i < 8; i++ {
			st.out = st.out[:0]
			s.processBinFrame(st, btyp, bpayload)
		}
		allocs := testing.AllocsPerRun(200, func() {
			st.out = st.out[:0]
			s.processBinFrame(st, btyp, bpayload)
		})
		if allocs != 0 {
			t.Fatalf("binary batch frame path allocates %.1f objects/op, want 0", allocs)
		}
	})

	t.Run("error frame", func(t *testing.T) {
		bad, err := wirebin.AppendEstimateReq(nil, []byte("no-such-model"), test[0].R)
		if err != nil {
			t.Fatal(err)
		}
		etyp, epayload := bad[4], bad[5:]
		for i := 0; i < 8; i++ {
			st.out = st.out[:0]
			s.processBinFrame(st, etyp, epayload)
		}
		allocs := testing.AllocsPerRun(200, func() {
			st.out = st.out[:0]
			s.processBinFrame(st, etyp, epayload)
		})
		if allocs != 0 {
			t.Fatalf("binary error frame path allocates %.1f objects/op, want 0", allocs)
		}
	})
}

// TestBinConcurrentSwaps hammers the binary listener from several
// connections while the registry hot-swaps models, so `go test -race`
// checks the frame loop against publication races. Every response must
// be a valid estimate from some published generation.
func TestBinConcurrentSwaps(t *testing.T) {
	train, test := fixture(t, 60, 4)
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", trainModel(t, train))
	addr, stop := startBinServer(t, s)
	defer stop()

	stopSwaps := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for {
			select {
			case <-stopSwaps:
				return
			default:
				s.Registry().Set(DefaultModelName, "swap", trainModel(t, train))
				time.Sleep(time.Millisecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := wirebin.Dial(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer func() { _ = c.Close() }()
			lastGen := int64(0)
			for i := 0; i < 200; i++ {
				est, gen, err := c.Estimate("", test[i%len(test)].R)
				if err != nil {
					t.Errorf("estimate: %v", err)
					return
				}
				if est < 0 || est > 1 || gen < lastGen {
					t.Errorf("est=%v gen=%d (last %d)", est, gen, lastGen)
					return
				}
				lastGen = gen
			}
		}()
	}
	wg.Wait()
	close(stopSwaps)
	swapper.Wait()
}

// TestBinMetrics checks the frame and connection counters move.
func TestBinMetrics(t *testing.T) {
	train, test := fixture(t, 60, 1)
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", trainModel(t, train))
	addr, stop := startBinServer(t, s)
	defer stop()

	c, err := wirebin.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Estimate("", test[0].R); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Estimate("missing", test[0].R); err == nil {
		t.Fatal("unknown model served")
	}
	_ = c.Close()

	if got := s.bin.connsTotal.Value(); got != 1 {
		t.Fatalf("connections_total = %d", got)
	}
	if got := s.bin.frameEst.Value(); got != 2 {
		t.Fatalf("frames_total{type=estimate} = %d", got)
	}
	if got := s.bin.errFrames.Value(); got != 1 {
		t.Fatalf("error_frames_total = %d", got)
	}
	if s.bin.frameSecs.Count() < 2 {
		t.Fatalf("frame_seconds count = %d", s.bin.frameSecs.Count())
	}
}

// TestBinServerDrain checks ServeBin returns promptly on cancel with an
// idle connection open (force-closed after the drain window).
func TestBinServerDrain(t *testing.T) {
	train, _ := fixture(t, 60, 1)
	s := NewServer(Options{DrainTimeout: 50 * time.Millisecond})
	s.Registry().Set(DefaultModelName, "test", trainModel(t, train))
	addr, stop := startBinServer(t, s)

	c, err := wirebin.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	done := make(chan struct{})
	go func() {
		stop() // cancels ctx; idle conn must be reaped by the drain timer
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeBin did not drain")
	}
}

// TestBinPoolDropsOversizedFrame: after a connection that carried a frame
// over maxPooledBytes, the pooled binState keeps no frame or output buffer
// over the cap.
func TestBinPoolDropsOversizedFrame(t *testing.T) {
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", unitModel(1))
	ranges := make([]geom.Range, 40000)
	for i := range ranges {
		ranges[i] = geom.Box{Lo: geom.Point{0.25, 0.25}, Hi: geom.Point{0.75, 0.75}}
	}
	pooledAfterFrame(t, s, ranges, func(st *binState) {
		if c := cap(st.frame); c > maxPooledBytes {
			t.Errorf("pooled binState keeps a %d-byte frame buffer", c)
		}
		if c := cap(st.out); c > maxPooledBytes {
			t.Errorf("pooled binState keeps a %d-byte output buffer", c)
		}
	})
}

// TestBinPoolTrimsArena: after a connection that decoded a frame of
// 60,000 1-D boxes, the pooled binState's decode arena keeps no buffer
// over maxPooledBytes, and its request no longer aliases the frame's
// ranges.
func TestBinPoolTrimsArena(t *testing.T) {
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", &hist.Model{
		Buckets: []geom.Box{geom.UnitCube(1)},
		Weights: []float64{1},
	})
	ranges := make([]geom.Range, 60000)
	for i := range ranges {
		ranges[i] = geom.Box{Lo: geom.Point{0.25}, Hi: geom.Point{0.75}}
	}
	pooledAfterFrame(t, s, ranges, func(st *binState) {
		// The arena's fields are wirebin's own, so read their sizes
		// through reflection: every slice field, present or future.
		av := reflect.ValueOf(st.arena)
		for i := 0; i < av.NumField(); i++ {
			f := av.Field(i)
			if f.Kind() != reflect.Slice {
				continue
			}
			if b := f.Cap() * int(f.Type().Elem().Size()); b > maxPooledBytes {
				t.Errorf("pooled arena keeps %d bytes in %s", b, av.Type().Field(i).Name)
			}
		}
		if st.req.Ranges != nil || st.req.Sels != nil || st.req.Model != nil {
			t.Errorf("pooled request still aliases %d ranges", len(st.req.Ranges))
		}
	})
}

// pooledAfterFrame serves one connection that sends an estimate batch of
// ranges, over maxPooledBytes as a frame, then runs check on the binState
// the pool hands back.
func pooledAfterFrame(t *testing.T, s *Server, ranges []geom.Range, check func(st *binState)) {
	t.Helper()
	frame, err := wirebin.AppendEstimateBatchReq(nil, nil, ranges)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) <= maxPooledBytes {
		t.Fatalf("test harness: frame is %d bytes, want over %d", len(frame), maxPooledBytes)
	}
	// The connection runs on this goroutine, so its deferred Puts land in
	// the pool this goroutine reads; retry in case it moved to another P
	// in between, until the state the connection used (a non-empty output
	// buffer marks it) comes back.
	for attempt := 0; ; attempt++ {
		client, conn := net.Pipe()
		go func() {
			defer func() { _ = client.Close() }()
			if _, err := client.Write(frame); err != nil {
				t.Errorf("write frame: %v", err)
				return
			}
			var buf []byte
			if typ, _, err := wirebin.ReadFrame(bufio.NewReader(client), &buf); err != nil || typ != wirebin.FrameEstimateBatchResp {
				t.Errorf("response frame %#x: %v", typ, err)
			}
		}()
		s.serveBinConn(conn)
		st := binStatePool.Get().(*binState)
		used := cap(st.out) > 0
		if used {
			check(st)
		}
		binStatePool.Put(st)
		if used {
			return
		}
		if attempt == 10 {
			t.Fatal("the pool never handed back the connection's state")
		}
	}
}
