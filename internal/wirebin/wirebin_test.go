package wirebin

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/geom"
)

func mustFrame(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

func decodeOne(t *testing.T, frame []byte, a *Arena, req *Request) error {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(frame))
	var buf []byte
	typ, payload, err := ReadFrame(br, &buf)
	if err != nil {
		return err
	}
	return DecodeRequest(typ, payload, a, req)
}

func TestRequestRoundTrip(t *testing.T) {
	box := geom.Box{Lo: geom.Point{0.1, 0.2}, Hi: geom.Point{0.5, 0.9}}
	half := geom.Halfspace{A: geom.Point{1, -2, 3}, B: 0.25}
	ball := geom.Ball{Center: geom.Point{0.5}, Radius: 0.125}

	var a Arena
	var req Request

	t.Run("estimate", func(t *testing.T) {
		f := mustFrame(AppendEstimateReq(nil, []byte("m1"), box))
		if err := decodeOne(t, f, &a, &req); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if req.Type != FrameEstimate || string(req.Model) != "m1" || len(req.Ranges) != 1 {
			t.Fatalf("bad request: %+v", req)
		}
		got, ok := req.Ranges[0].(*geom.Box)
		if !ok {
			t.Fatalf("range type %T, want *geom.Box", req.Ranges[0])
		}
		for i := range box.Lo {
			if got.Lo[i] != box.Lo[i] || got.Hi[i] != box.Hi[i] {
				t.Fatalf("coords differ: %+v vs %+v", got, box)
			}
		}
	})

	t.Run("batch mixed kinds", func(t *testing.T) {
		ranges := []geom.Range{box, &half, ball}
		f := mustFrame(AppendEstimateBatchReq(nil, nil, ranges))
		if err := decodeOne(t, f, &a, &req); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if req.Type != FrameEstimateBatch || len(req.Model) != 0 || len(req.Ranges) != 3 {
			t.Fatalf("bad request: %+v", req)
		}
		if _, ok := req.Ranges[0].(*geom.Box); !ok {
			t.Fatalf("range 0 type %T", req.Ranges[0])
		}
		h, ok := req.Ranges[1].(*geom.Halfspace)
		if !ok || h.B != half.B || len(h.A) != 3 {
			t.Fatalf("range 1 bad: %T %+v", req.Ranges[1], req.Ranges[1])
		}
		bl, ok := req.Ranges[2].(*geom.Ball)
		if !ok || bl.Radius != ball.Radius {
			t.Fatalf("range 2 bad: %T %+v", req.Ranges[2], req.Ranges[2])
		}
	})

	t.Run("feedback", func(t *testing.T) {
		ranges := []geom.Range{box, ball}
		sels := []float64{0.25, 1}
		f := mustFrame(AppendFeedbackReq(nil, []byte("fb"), ranges, sels))
		if err := decodeOne(t, f, &a, &req); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if req.Type != FrameFeedback || len(req.Ranges) != 2 || len(req.Sels) != 2 {
			t.Fatalf("bad request: %+v", req)
		}
		if req.Sels[0] != 0.25 || req.Sels[1] != 1 {
			t.Fatalf("sels %v", req.Sels)
		}
	})
}

func TestResponseRoundTrip(t *testing.T) {
	var resp Response
	decode := func(t *testing.T, frame []byte) {
		t.Helper()
		br := bufio.NewReader(bytes.NewReader(frame))
		var buf []byte
		typ, payload, err := ReadFrame(br, &buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if err := DecodeResponse(typ, payload, &resp); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}

	decode(t, AppendEstimateResp(nil, 7, 0.375))
	if resp.Type != FrameEstimateResp || resp.Generation != 7 || resp.Est != 0.375 {
		t.Fatalf("estimate resp: %+v", resp)
	}

	ests := []float64{0, 0.5, 1, math.Pi / 4}
	decode(t, AppendEstimateBatchResp(nil, 3, ests))
	if resp.Generation != 3 || len(resp.Ests) != len(ests) {
		t.Fatalf("batch resp: %+v", resp)
	}
	for i, v := range ests {
		if resp.Ests[i] != v {
			t.Fatalf("est %d: %v != %v", i, resp.Ests[i], v)
		}
	}

	decode(t, AppendFeedbackResp(nil, 9, 41, 1))
	if resp.Generation != 9 || resp.Accepted != 41 || resp.Dropped != 1 {
		t.Fatalf("feedback resp: %+v", resp)
	}

	decode(t, AppendErrorResp(nil, CodeUnknownModel, "no such model"))
	if resp.Type != FrameError || resp.Code != CodeUnknownModel || string(resp.Msg) != "no such model" {
		t.Fatalf("error resp: %+v", resp)
	}
}

func TestDecodeRequestErrors(t *testing.T) {
	box := geom.Box{Lo: geom.Point{0}, Hi: geom.Point{1}}
	good := mustFrame(AppendEstimateReq(nil, []byte("m"), box))

	var a Arena
	var req Request

	cases := []struct {
		name  string
		frame []byte
		class error
	}{
		{"trailing bytes", append(func() []byte {
			f := mustFrame(AppendEstimateReq(nil, []byte("m"), box))
			binary.LittleEndian.PutUint32(f[:4], uint32(len(f)-4+2))
			return f
		}(), 0, 0), ErrMalformed},
		{"unknown type", func() []byte {
			f := append([]byte(nil), good...)
			f[4] = 0x7F
			return f
		}(), ErrMalformed},
		{"bad kind", func() []byte {
			f := append([]byte(nil), good...)
			f[4+1+1+1] = 9 // kind byte after type+namelen+name
			return f
		}(), ErrMalformed},
		{"zero dim", func() []byte {
			f := mustFrame(AppendEstimateReq(nil, nil, geom.Box{Lo: geom.Point{}, Hi: geom.Point{}}))
			return f
		}(), ErrMalformed},
		{"negative radius", func() []byte {
			f, _ := AppendEstimateReq(nil, nil, geom.Ball{Center: geom.Point{0.5}, Radius: 0.5})
			// flip the radius sign bit (last 8 bytes are the radius)
			f[len(f)-1] |= 0x80
			return f
		}(), ErrBadQuery},
		{"NaN box corner", mustFrame(AppendEstimateReq(nil, nil,
			geom.Box{Lo: geom.Point{math.NaN()}, Hi: geom.Point{1}})), ErrBadQuery},
		{"infinite box corner", mustFrame(AppendFeedbackReq(nil, nil,
			[]geom.Range{geom.Box{Lo: geom.Point{0}, Hi: geom.Point{math.Inf(1)}}}, []float64{0.5})), ErrBadQuery},
		{"NaN halfspace normal", mustFrame(AppendEstimateReq(nil, nil,
			geom.Halfspace{A: geom.Point{math.NaN()}, B: 0.5})), ErrBadQuery},
		{"infinite halfspace offset", mustFrame(AppendEstimateReq(nil, nil,
			geom.Halfspace{A: geom.Point{1}, B: math.Inf(-1)})), ErrBadQuery},
		{"infinite ball center", mustFrame(AppendEstimateReq(nil, nil,
			geom.Ball{Center: geom.Point{math.Inf(-1)}, Radius: 0.5})), ErrBadQuery},
		{"NaN radius", mustFrame(AppendFeedbackReq(nil, nil,
			[]geom.Range{geom.Ball{Center: geom.Point{0.5}, Radius: math.NaN()}}, []float64{0.5})), ErrBadQuery},
		{"infinite radius", mustFrame(AppendEstimateReq(nil, nil,
			geom.Ball{Center: geom.Point{0.5}, Radius: math.Inf(1)})), ErrBadQuery},
		{"sel out of range", func() []byte {
			f, _ := AppendFeedbackReq(nil, nil, []geom.Range{box}, []float64{2})
			return f
		}(), ErrBadQuery},
		{"zero count batch", func() []byte {
			dst, off := beginFrame(nil, FrameEstimateBatch)
			dst = appendName(dst, nil)
			dst = binary.AppendUvarint(dst, 0)
			return endFrame(dst, off)
		}(), ErrBadQuery},
		{"forged huge count", func() []byte {
			dst, off := beginFrame(nil, FrameEstimateBatch)
			dst = appendName(dst, nil)
			dst = binary.AppendUvarint(dst, 1<<40)
			return endFrame(dst, off)
		}(), ErrMalformed},
		{"truncated coords", func() []byte {
			f := append([]byte(nil), good...)
			f = f[:len(f)-4]
			binary.LittleEndian.PutUint32(f[:4], uint32(len(f)-4))
			return f
		}(), ErrMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := decodeOne(t, tc.frame, &a, &req)
			if err == nil {
				t.Fatalf("decoded successfully, want error class %v", tc.class)
			}
			if !errors.Is(err, tc.class) {
				t.Fatalf("error %v is not class %v", err, tc.class)
			}
		})
	}
}

func TestReadFrameLimits(t *testing.T) {
	t.Run("oversized keeps framing", func(t *testing.T) {
		var b []byte
		b = binary.LittleEndian.AppendUint32(b, MaxFrame+1)
		b = append(b, make([]byte, MaxFrame+1)...)
		good := mustFrame(AppendEstimateReq(nil, nil, geom.Box{Lo: geom.Point{0}, Hi: geom.Point{1}}))
		b = append(b, good...)

		br := bufio.NewReader(bytes.NewReader(b))
		var buf []byte
		_, _, err := ReadFrame(br, &buf)
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("want ErrFrameTooLarge, got %v", err)
		}
		typ, _, err := ReadFrame(br, &buf)
		if err != nil || typ != FrameEstimate {
			t.Fatalf("framing lost after oversize: typ=%#x err=%v", typ, err)
		}
	})

	t.Run("clean EOF", func(t *testing.T) {
		br := bufio.NewReader(bytes.NewReader(nil))
		var buf []byte
		_, _, err := ReadFrame(br, &buf)
		if err != io.EOF {
			t.Fatalf("want io.EOF, got %v", err)
		}
	})

	t.Run("mid-frame EOF", func(t *testing.T) {
		good := mustFrame(AppendEstimateReq(nil, nil, geom.Box{Lo: geom.Point{0}, Hi: geom.Point{1}}))
		br := bufio.NewReader(bytes.NewReader(good[:len(good)-3]))
		var buf []byte
		_, _, err := ReadFrame(br, &buf)
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("want ErrMalformed, got %v", err)
		}
	})

	t.Run("zero length", func(t *testing.T) {
		b := binary.LittleEndian.AppendUint32(nil, 0)
		br := bufio.NewReader(bytes.NewReader(b))
		var buf []byte
		_, _, err := ReadFrame(br, &buf)
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("want ErrMalformed, got %v", err)
		}
	})
}

// TestDecodeReuseNoGrowth checks that decoding the same frame repeatedly
// with one arena reaches a fixed point: after the first call, no arena
// buffer grows.
func TestDecodeReuseNoGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ranges := make([]geom.Range, 32)
	for i := range ranges {
		lo := geom.Point{rng.Float64(), rng.Float64()}
		ranges[i] = geom.Box{Lo: lo, Hi: geom.Point{lo[0] + 0.1, lo[1] + 0.1}}
	}
	f := mustFrame(AppendEstimateBatchReq(nil, []byte("m"), ranges))

	var a Arena
	var req Request
	if err := DecodeRequest(f[4], f[5:], &a, &req); err != nil {
		t.Fatal(err)
	}
	c0, b0 := cap(a.coords), cap(a.boxes)
	for i := 0; i < 100; i++ {
		if err := DecodeRequest(f[4], f[5:], &a, &req); err != nil {
			t.Fatal(err)
		}
	}
	if cap(a.coords) != c0 || cap(a.boxes) != b0 {
		t.Fatalf("arena grew on reuse: coords %d→%d boxes %d→%d", c0, cap(a.coords), b0, cap(a.boxes))
	}
}

// TestArenaTrim: Trim drops exactly the buffers whose backing arrays are
// over the limit, keeps the rest with their capacity, and the arena
// decodes as before afterwards.
func TestArenaTrim(t *testing.T) {
	ranges := make([]geom.Range, 60000)
	for i := range ranges {
		ranges[i] = geom.Box{Lo: geom.Point{0.25}, Hi: geom.Point{0.75}}
	}
	big := mustFrame(AppendEstimateBatchReq(nil, []byte("m"), ranges))
	small := mustFrame(AppendEstimateBatchReq(nil, []byte("m"), ranges[:4]))
	const limit = 1 << 20
	var a Arena
	var req Request
	if err := decodeOne(t, big, &a, &req); err != nil {
		t.Fatal(err)
	}
	if c := cap(a.boxes); c*int(unsafe.Sizeof(geom.Box{})) <= limit {
		t.Fatalf("test harness: boxes hold %d boxes, want over %d bytes", c, limit)
	}
	nameCap := cap(a.name)
	a.Trim(limit)
	if a.coords != nil || a.boxes != nil || a.ranges != nil {
		t.Fatalf("oversized buffers kept: coords %d, boxes %d, ranges %d", cap(a.coords), cap(a.boxes), cap(a.ranges))
	}
	if cap(a.name) != nameCap {
		t.Fatalf("name buffer went from %d to %d bytes", nameCap, cap(a.name))
	}
	if err := decodeOne(t, small, &a, &req); err != nil {
		t.Fatal(err)
	}
	if len(req.Ranges) != 4 {
		t.Fatalf("decoded %d ranges after Trim, want 4", len(req.Ranges))
	}
	coords, boxes := cap(a.coords), cap(a.boxes)
	a.Trim(limit)
	if cap(a.coords) != coords || cap(a.boxes) != boxes {
		t.Fatalf("Trim dropped buffers under the limit")
	}
}

// TestFloatBitExact checks coordinates survive encode/decode bit-exactly,
// including negative zero, subnormals, and extreme exponents.
func TestFloatBitExact(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1e-308, -1e308, math.Pi, 0x1p-1074, math.MaxFloat64}
	lo := geom.Point(vals[:3])
	hi := geom.Point(vals[3:6])
	f := mustFrame(AppendEstimateReq(nil, nil, geom.Box{Lo: lo, Hi: hi}))
	var a Arena
	var req Request
	if err := DecodeRequest(f[4], f[5:], &a, &req); err != nil {
		t.Fatal(err)
	}
	got := req.Ranges[0].(*geom.Box)
	for i := range lo {
		if math.Float64bits(got.Lo[i]) != math.Float64bits(lo[i]) {
			t.Fatalf("Lo[%d] bits differ", i)
		}
		if math.Float64bits(got.Hi[i]) != math.Float64bits(hi[i]) {
			t.Fatalf("Hi[%d] bits differ", i)
		}
	}
}
