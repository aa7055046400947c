package wirebin

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/geom"
)

// FuzzDecodeRequest feeds raw frame bytes (length prefix included) through
// ReadFrame + DecodeRequest and asserts the decoder's contract: it never
// panics, every failure is typed (ErrMalformed, ErrBadQuery, or
// ErrFrameTooLarge), every decoded range holds only finite values, and
// arena growth is bounded by the declared frame length — a forged count
// cannot make the decoder allocate more than the bytes on the wire imply.
func FuzzDecodeRequest(f *testing.F) {
	box := geom.Box{Lo: geom.Point{0.1, 0.2}, Hi: geom.Point{0.6, 0.7}}
	half := geom.Halfspace{A: geom.Point{1, 2}, B: 0.5}
	ball := geom.Ball{Center: geom.Point{0.5, 0.5}, Radius: 0.25}

	seed := func(frame []byte, err error) {
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(frame)
	}
	seed(AppendEstimateReq(nil, []byte("m"), box))
	seed(AppendEstimateBatchReq(nil, []byte("model-name"), []geom.Range{box, &half, ball}))
	seed(AppendFeedbackReq(nil, nil, []geom.Range{box, ball}, []float64{0.25, 0.75}))
	// Non-finite values in every slot a query has.
	nan, inf := math.NaN(), math.Inf(1)
	seed(AppendEstimateBatchReq(nil, nil, []geom.Range{
		geom.Box{Lo: geom.Point{nan, 0}, Hi: geom.Point{1, 1}},
		geom.Box{Lo: geom.Point{0, 0}, Hi: geom.Point{1, -inf}},
		geom.Halfspace{A: geom.Point{1, inf}, B: 0},
		geom.Halfspace{A: geom.Point{1, 1}, B: nan},
		geom.Ball{Center: geom.Point{nan, 0.5}, Radius: 0.25},
		geom.Ball{Center: geom.Point{0.5, 0.5}, Radius: inf},
	}))
	seed(AppendFeedbackReq(nil, nil, []geom.Range{geom.Ball{Center: geom.Point{0.5}, Radius: nan}}, []float64{0.5}))

	// Truncations of a valid frame at every prefix length.
	whole, err := AppendEstimateBatchReq(nil, []byte("m"), []geom.Range{box, half})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < len(whole); i++ {
		trunc := append([]byte(nil), whole[:i]...)
		if i >= 4 {
			binary.LittleEndian.PutUint32(trunc[:4], uint32(i-4))
		}
		f.Add(trunc)
	}
	// Forged counts and lengths.
	forge := func(mut func(b []byte)) {
		b := append([]byte(nil), whole...)
		mut(b)
		f.Add(b)
	}
	forge(func(b []byte) { binary.LittleEndian.PutUint32(b[:4], 1<<31) })
	forge(func(b []byte) { binary.LittleEndian.PutUint32(b[:4], 1) })
	forge(func(b []byte) { b[4] = 0xFF })                  // unknown type
	forge(func(b []byte) { b[7] = 200 })                   // garbage kind
	f.Add([]byte{})                                        // clean EOF
	f.Add([]byte{1, 0, 0, 0, FrameEstimate})               // empty payload
	f.Add(bytes.Repeat([]byte{0xFF}, 64))                  // varint soup
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFrame)) // huge declared, no body

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		var a Arena
		var req Request
		for {
			typ, payload, err := ReadFrame(br, &buf)
			if err != nil {
				if err == io.EOF {
					return
				}
				if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrFrameTooLarge) {
					t.Fatalf("ReadFrame returned untyped error %v", err)
				}
				if errors.Is(err, ErrFrameTooLarge) {
					continue // framing intact, keep reading
				}
				return
			}
			if len(payload) > MaxFrame {
				t.Fatalf("payload %d exceeds MaxFrame", len(payload))
			}
			derr := DecodeRequest(typ, payload, &a, &req)
			if derr != nil {
				if !errors.Is(derr, ErrMalformed) && !errors.Is(derr, ErrBadQuery) {
					t.Fatalf("DecodeRequest returned untyped error %v", derr)
				}
			} else {
				if len(req.Ranges) == 0 {
					t.Fatal("successful decode with zero ranges")
				}
				if req.Type == FrameFeedback && len(req.Sels) != len(req.Ranges) {
					t.Fatalf("feedback sels %d != ranges %d", len(req.Sels), len(req.Ranges))
				}
				for i, q := range req.Ranges {
					if !rangeFinite(q) {
						t.Fatalf("range %d decoded with a non-finite value: %+v", i, q)
					}
				}
			}
			// Arena growth must be bounded by the payload: every coord
			// consumed >= 8 payload bytes, every range >= minQueryBytes.
			if len(a.coords)*8 > len(payload) {
				t.Fatalf("arena holds %d coords from a %d-byte payload", len(a.coords), len(payload))
			}
			if len(a.ranges)*minQueryBytes > len(payload)+minQueryBytes {
				t.Fatalf("arena holds %d ranges from a %d-byte payload", len(a.ranges), len(payload))
			}
		}
	})
}

// rangeFinite reports whether every coordinate and scalar of a decoded
// range is finite.
func rangeFinite(r geom.Range) bool {
	var vals []float64
	switch q := r.(type) {
	case *geom.Box:
		vals = append(append(vals, q.Lo...), q.Hi...)
	case *geom.Halfspace:
		vals = append(append(vals, q.A...), q.B)
	case *geom.Ball:
		vals = append(append(vals, q.Center...), q.Radius)
	default:
		return false
	}
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
