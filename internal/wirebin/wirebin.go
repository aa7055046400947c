// Package wirebin is the compact binary wire protocol of the serving
// layer (DESIGN.md §15). The JSON wire path (§13) already runs at zero
// allocations per request, but a single estimate still spends most of its
// time in the HTTP envelope: header parsing, routing, text-formatted
// floats. For an estimator sitting inside a query optimizer's per-query
// loop that envelope is the dominant cost, so this package defines a
// length-prefixed binary framing protocol for persistent TCP connections:
// fixed little-endian headers, raw float64 coordinates, varint counts, and
// per-connection reusable arenas, so a steady-state estimate frame is
// decoded, evaluated, and answered without a single heap allocation.
//
// Framing. Every frame is
//
//	u32 length (LE) | u8 type | payload
//
// where length counts the type byte plus the payload (so length >= 1).
// Frames longer than MaxFrame are rejected. Clients may pipeline: the
// server answers every request frame with exactly one response frame, in
// request order, on the same connection.
//
// Request payloads (all integers little-endian, counts unsigned varints):
//
//	FrameEstimate       name | query
//	FrameEstimateBatch  name | count | count × query
//	FrameFeedback       name | count | count × (query | f64 sel)
//
// where name is a varint byte length followed by that many bytes (empty
// means the server's default model), and query is
//
//	u8 kind | varint dim | coords
//
// with kind 1 = box (dim f64 lo, dim f64 hi), kind 2 = halfspace (dim f64
// a, f64 b), kind 3 = ball (dim f64 center, f64 radius).
//
// Response payloads:
//
//	FrameEstimateResp       varint generation | f64 estimate
//	FrameEstimateBatchResp  varint generation | varint count | count × f64
//	FrameFeedbackResp       varint generation | varint accepted | varint dropped
//	FrameError              u8 code | varint len | message bytes
//
// Every success response carries the generation of the model that answered
// it, so clients observe hot-swaps with no extra round trip. Decoding
// never allocates beyond the declared frame length: counts are validated
// against the remaining payload before any arena grows, so a garbage frame
// costs at most one bounded read. All decode failures are typed —
// errors.Is(err, ErrMalformed) for structural problems, errors.Is(err,
// ErrBadQuery) for semantically invalid queries — and never panic.
package wirebin

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"unsafe"

	"repro/internal/geom"
)

// Frame types. Requests have the high bit clear, responses set.
const (
	FrameEstimate      = 0x01
	FrameEstimateBatch = 0x02
	FrameFeedback      = 0x03

	FrameEstimateResp      = 0x81
	FrameEstimateBatchResp = 0x82
	FrameFeedbackResp      = 0x83
	FrameError             = 0xEE
)

// Error codes carried by FrameError payloads.
const (
	CodeBadFrame     = 1 // malformed frame or payload
	CodeBadQuery     = 2 // structurally valid frame, semantically invalid query
	CodeUnknownModel = 3 // model name not registered
	CodeTooLarge     = 4 // frame exceeds the server's size limit
)

// Query kind tags.
const (
	kindBox       = 1
	kindHalfspace = 2
	kindBall      = 3
)

// MaxFrame bounds one frame (type byte + payload). Batched estimates at
// the default stream batch size are a few KiB; 16 MiB leaves room for
// bulk feedback uploads while keeping a garbage length prefix cheap.
const MaxFrame = 16 << 20

// maxDim bounds a query's dimensionality: beyond any workload in this
// repository, small enough that dim*8 can be validated without overflow.
const maxDim = 1 << 12

// maxName bounds the model-name field.
const maxName = 256

// Typed failure classes. Every decode error wraps exactly one of these;
// match with errors.Is.
var (
	// ErrMalformed is the structural class: truncated payloads, bad
	// varints, unknown tags, trailing bytes.
	ErrMalformed = errors.New("wirebin: malformed frame")
	// ErrBadQuery is the semantic class: well-formed bytes describing an
	// invalid query or observation.
	ErrBadQuery = errors.New("wirebin: invalid query")
	// ErrFrameTooLarge reports a length prefix exceeding MaxFrame. The
	// framing remains intact (the oversized payload can be discarded), so
	// servers answer it with CodeTooLarge rather than closing.
	ErrFrameTooLarge = errors.New("wirebin: frame exceeds size limit")
)

// Precomposed decode errors, so the steady-state error checks on the
// zero-allocation path never format.
var (
	errShortHeader = fmt.Errorf("%w: frame shorter than header", ErrMalformed)
	errTruncated   = fmt.Errorf("%w: truncated payload", ErrMalformed)
	errVarint      = fmt.Errorf("%w: invalid varint", ErrMalformed)
	errTrailing    = fmt.Errorf("%w: trailing bytes after frame content", ErrMalformed)
	errCount       = fmt.Errorf("%w: count exceeds frame size", ErrMalformed)
	errNameLen     = fmt.Errorf("%w: model name exceeds 256 bytes", ErrMalformed)
	errDim         = fmt.Errorf("%w: dimension out of range", ErrMalformed)
	errKind        = fmt.Errorf("%w: unknown query kind", ErrMalformed)
	errNoQueries   = fmt.Errorf("%w: no queries given", ErrBadQuery)
	errRadius      = fmt.Errorf("%w: ball query needs a non-negative radius", ErrBadQuery)
	errNonFinite   = fmt.Errorf("%w: query holds a NaN or infinite value", ErrBadQuery)
	errSelRange    = fmt.Errorf("%w: sel must be in [0,1]", ErrBadQuery)
)

// ErrUnknownFrame reports a request frame type the decoder does not know.
var ErrUnknownFrame = fmt.Errorf("%w: unknown frame type", ErrMalformed)

// minQueryBytes is the smallest possible encoded query (kind byte, one
// varint dim byte, and at least two float64s for a 1-d box or a 1-d
// halfspace/ball). Batch counts are validated against it before any arena
// grows, so a forged count cannot force an allocation larger than the
// frame itself.
const minQueryBytes = 1 + 1 + 16

// Arena is the per-connection decode workspace: every slice the decoder
// produces points into these buffers, which are reset (length zero,
// capacity kept) per frame, so steady-state decoding does not allocate.
// Decoded requests alias the arena and are valid until the next Reset.
type Arena struct {
	coords []float64
	boxes  []geom.Box
	halfs  []geom.Halfspace
	balls  []geom.Ball
	ranges []geom.Range
	sels   []float64
	name   []byte
}

// Reset clears the arena for the next frame, keeping all capacity.
//
//selvet:zeroalloc
func (a *Arena) Reset() {
	a.coords = a.coords[:0]
	a.boxes = a.boxes[:0]
	a.halfs = a.halfs[:0]
	a.balls = a.balls[:0]
	a.ranges = a.ranges[:0]
	a.sels = a.sels[:0]
	a.name = a.name[:0]
}

// Trim sets to nil every buffer whose backing array is over maxBytes, so
// an arena kept for later frames does not hold the largest frame's memory;
// the next frame that needs such a buffer grows a fresh one. Requests
// decoded before still alias the old arrays and keep them alive.
//
//selvet:zeroalloc
func (a *Arena) Trim(maxBytes int) {
	dropOver(&a.coords, maxBytes)
	dropOver(&a.boxes, maxBytes)
	dropOver(&a.halfs, maxBytes)
	dropOver(&a.balls, maxBytes)
	dropOver(&a.ranges, maxBytes)
	dropOver(&a.sels, maxBytes)
	dropOver(&a.name, maxBytes)
}

// dropOver sets *s to nil when its backing array is over maxBytes.
//
//selvet:zeroalloc
func dropOver[T any](s *[]T, maxBytes int) {
	var zero T
	if cap(*s)*int(unsafe.Sizeof(zero)) > maxBytes {
		*s = nil
	}
}

// Request is one decoded request frame. All slices alias the Arena passed
// to DecodeRequest and are valid until its next Reset.
type Request struct {
	Type   byte
	Model  []byte       // raw model name; empty means the default model
	Ranges []geom.Range // decoded queries, len >= 1
	Sels   []float64    // feedback frames only: one selectivity per range
}

// reader is a bounds-checked cursor over one frame payload.
type reader struct {
	b []byte
	i int
}

//selvet:zeroalloc
func (r *reader) remaining() int { return len(r.b) - r.i }

//selvet:zeroalloc
func (r *reader) u8() (byte, error) {
	if r.i >= len(r.b) {
		return 0, errTruncated
	}
	c := r.b[r.i]
	r.i++
	return c, nil
}

//selvet:zeroalloc
func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.i:])
	if n <= 0 {
		return 0, errVarint
	}
	r.i += n
	return v, nil
}

// f64 reads one little-endian float64.
//
//selvet:zeroalloc
func (r *reader) f64() (float64, error) {
	if r.remaining() < 8 {
		return 0, errTruncated
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.i:]))
	r.i += 8
	return v, nil
}

// floats appends n raw float64s to the arena's coordinate store and
// returns the window. The caller has already validated that 8*n bytes
// remain, so growth is bounded by the frame length.
//
//selvet:zeroalloc
func (r *reader) floats(a *Arena, n int) geom.Point {
	start := len(a.coords)
	for k := 0; k < n; k++ {
		a.coords = append(a.coords, math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.i:])))
		r.i += 8
	}
	return geom.Point(a.coords[start : start+n : start+n])
}

// finite reports whether every value is a real number: no NaN, no ±Inf.
//
//selvet:zeroalloc
func finite(vals ...float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// decodeQuery decodes one query into the arena, returning a pointer-typed
// range (a *geom.Box fits the interface word, keeping the path
// allocation-free — same trick as the JSON arena parser). Non-finite
// values are rejected: no JSON query can carry them, and a NaN corner
// would yield a NaN estimate or poison the feedback the model learns from.
//
//selvet:zeroalloc
func (r *reader) decodeQuery(a *Arena) (geom.Range, error) {
	kind, err := r.u8()
	if err != nil {
		return nil, err
	}
	d64, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if d64 == 0 || d64 > maxDim {
		return nil, errDim
	}
	dim := int(d64)
	switch kind {
	case kindBox:
		if r.remaining() < 16*dim {
			return nil, errTruncated
		}
		lo := r.floats(a, dim)
		hi := r.floats(a, dim)
		if !finite(lo...) || !finite(hi...) {
			return nil, errNonFinite
		}
		a.boxes = append(a.boxes, geom.Box{Lo: lo, Hi: hi})
		return &a.boxes[len(a.boxes)-1], nil
	case kindHalfspace:
		if r.remaining() < 8*dim+8 {
			return nil, errTruncated
		}
		av := r.floats(a, dim)
		b, _ := r.f64()
		if !finite(av...) || !finite(b) {
			return nil, errNonFinite
		}
		a.halfs = append(a.halfs, geom.Halfspace{A: av, B: b})
		return &a.halfs[len(a.halfs)-1], nil
	case kindBall:
		if r.remaining() < 8*dim+8 {
			return nil, errTruncated
		}
		c := r.floats(a, dim)
		rad, _ := r.f64()
		if !(rad >= 0) { // rejects NaN too
			return nil, errRadius
		}
		if !finite(c...) || !finite(rad) {
			return nil, errNonFinite
		}
		a.balls = append(a.balls, geom.Ball{Center: c, Radius: rad})
		return &a.balls[len(a.balls)-1], nil
	}
	return nil, errKind
}

// decodeName decodes the model-name field into the arena.
//
//selvet:zeroalloc
func (r *reader) decodeName(a *Arena) ([]byte, error) {
	n64, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n64 > maxName {
		return nil, errNameLen
	}
	n := int(n64)
	if r.remaining() < n {
		return nil, errTruncated
	}
	a.name = append(a.name[:0], r.b[r.i:r.i+n]...)
	r.i += n
	return a.name, nil
}

// DecodeRequest decodes one request frame payload into req, using a for
// all storage. It never panics and never allocates more than the declared
// frame length implies: batch counts are validated against the remaining
// payload before the arena grows. Errors wrap ErrMalformed (structural)
// or ErrBadQuery (semantic).
//
//selvet:zeroalloc
func DecodeRequest(typ byte, payload []byte, a *Arena, req *Request) error {
	a.Reset()
	req.Type = typ
	req.Model = nil
	req.Ranges = nil
	req.Sels = nil
	r := reader{b: payload}
	name, err := r.decodeName(a)
	if err != nil {
		return err
	}
	req.Model = name
	switch typ {
	case FrameEstimate:
		q, err := r.decodeQuery(a)
		if err != nil {
			return err
		}
		a.ranges = append(a.ranges, q)
	case FrameEstimateBatch, FrameFeedback:
		per := minQueryBytes
		if typ == FrameFeedback {
			per += 8 // the trailing sel
		}
		n64, err := r.uvarint()
		if err != nil {
			return err
		}
		if n64 == 0 {
			return errNoQueries
		}
		if n64 > uint64(r.remaining()/per) {
			return errCount
		}
		n := int(n64)
		for k := 0; k < n; k++ {
			q, err := r.decodeQuery(a)
			if err != nil {
				return err
			}
			a.ranges = append(a.ranges, q)
			if typ == FrameFeedback {
				sel, err := r.f64()
				if err != nil {
					return err
				}
				if !(sel >= 0 && sel <= 1) { // rejects NaN too
					return errSelRange
				}
				a.sels = append(a.sels, sel)
			}
		}
	default:
		return ErrUnknownFrame
	}
	if r.remaining() != 0 {
		return errTrailing
	}
	req.Ranges = a.ranges
	if typ == FrameFeedback {
		req.Sels = a.sels
	}
	return nil
}

// ---- frame transport ----

// ReadFrame reads one length-prefixed frame from br into *buf (reusing
// its capacity), returning the frame type and a payload view into *buf.
// A clean EOF at a frame boundary returns io.EOF; EOF mid-frame returns
// an error wrapping ErrMalformed. An oversized length prefix returns
// ErrFrameTooLarge with the payload consumed and discarded, so the caller
// can answer with CodeTooLarge and keep the connection.
func ReadFrame(br *bufio.Reader, buf *[]byte) (typ byte, payload []byte, err error) {
	b := *buf
	if cap(b) < 4 {
		b = make([]byte, 0, 4096)
		*buf = b
	}
	b = b[:4]
	if _, err := io.ReadFull(br, b); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, errShortHeader
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < 1 {
		return 0, nil, errShortHeader
	}
	if n > MaxFrame {
		// Discard the declared payload so framing stays intact.
		if _, derr := br.Discard(n); derr != nil {
			return 0, nil, errTruncated
		}
		return 0, nil, ErrFrameTooLarge
	}
	if cap(b) < n {
		nb := make([]byte, n)
		b = nb
		*buf = nb
	}
	b = b[:n]
	if _, err := io.ReadFull(br, b); err != nil {
		return 0, nil, errTruncated
	}
	*buf = b
	return b[0], b[1:], nil
}

// ---- encoding ----

// beginFrame reserves the length prefix and writes the type byte; the
// matching endFrame backpatches the length.
//
//selvet:zeroalloc
func beginFrame(dst []byte, typ byte) ([]byte, int) {
	off := len(dst)
	dst = append(dst, 0, 0, 0, 0, typ)
	return dst, off
}

//selvet:zeroalloc
func endFrame(dst []byte, off int) []byte {
	binary.LittleEndian.PutUint32(dst[off:off+4], uint32(len(dst)-off-4))
	return dst
}

//selvet:zeroalloc
func appendName(dst []byte, name []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	return append(dst, name...)
}

//selvet:zeroalloc
func appendF64(dst []byte, v float64) []byte {
	var raw [8]byte
	binary.LittleEndian.PutUint64(raw[:], math.Float64bits(v))
	return append(dst, raw[:]...)
}

//selvet:zeroalloc
func appendPoint(dst []byte, p geom.Point) []byte {
	for _, v := range p {
		dst = appendF64(dst, v)
	}
	return dst
}

// AppendQuery appends one encoded query. Pointer and value range types
// are both accepted (the serving arenas hold pointers). Unsupported range
// classes return an error wrapping ErrBadQuery.
//
//selvet:zeroalloc
func AppendQuery(dst []byte, r geom.Range) ([]byte, error) {
	switch q := r.(type) {
	case geom.Box:
		return appendBox(dst, q.Lo, q.Hi), nil
	case *geom.Box:
		return appendBox(dst, q.Lo, q.Hi), nil
	case geom.Halfspace:
		return appendHalfspace(dst, q.A, q.B), nil
	case *geom.Halfspace:
		return appendHalfspace(dst, q.A, q.B), nil
	case geom.Ball:
		return appendBall(dst, q.Center, q.Radius), nil
	case *geom.Ball:
		return appendBall(dst, q.Center, q.Radius), nil
	}
	return dst, fmt.Errorf("%w: unsupported range type %T", ErrBadQuery, r)
}

//selvet:zeroalloc
func appendBox(dst []byte, lo, hi geom.Point) []byte {
	dst = append(dst, kindBox)
	dst = binary.AppendUvarint(dst, uint64(len(lo)))
	dst = appendPoint(dst, lo)
	return appendPoint(dst, hi)
}

//selvet:zeroalloc
func appendHalfspace(dst []byte, a geom.Point, b float64) []byte {
	dst = append(dst, kindHalfspace)
	dst = binary.AppendUvarint(dst, uint64(len(a)))
	dst = appendPoint(dst, a)
	return appendF64(dst, b)
}

//selvet:zeroalloc
func appendBall(dst []byte, c geom.Point, radius float64) []byte {
	dst = append(dst, kindBall)
	dst = binary.AppendUvarint(dst, uint64(len(c)))
	dst = appendPoint(dst, c)
	return appendF64(dst, radius)
}

// AppendEstimateReq appends a complete FrameEstimate frame.
func AppendEstimateReq(dst []byte, model []byte, r geom.Range) ([]byte, error) {
	dst, off := beginFrame(dst, FrameEstimate)
	dst = appendName(dst, model)
	dst, err := AppendQuery(dst, r)
	if err != nil {
		return dst[:off], err
	}
	return endFrame(dst, off), nil
}

// AppendEstimateBatchReq appends a complete FrameEstimateBatch frame.
func AppendEstimateBatchReq(dst []byte, model []byte, ranges []geom.Range) ([]byte, error) {
	dst, off := beginFrame(dst, FrameEstimateBatch)
	dst = appendName(dst, model)
	dst = binary.AppendUvarint(dst, uint64(len(ranges)))
	var err error
	for _, r := range ranges {
		if dst, err = AppendQuery(dst, r); err != nil {
			return dst[:off], err
		}
	}
	return endFrame(dst, off), nil
}

// AppendFeedbackReq appends a complete FrameFeedback frame; sels[i] labels
// ranges[i].
func AppendFeedbackReq(dst []byte, model []byte, ranges []geom.Range, sels []float64) ([]byte, error) {
	if len(ranges) != len(sels) {
		return dst, fmt.Errorf("%w: %d ranges but %d sels", ErrBadQuery, len(ranges), len(sels))
	}
	dst, off := beginFrame(dst, FrameFeedback)
	dst = appendName(dst, model)
	dst = binary.AppendUvarint(dst, uint64(len(ranges)))
	var err error
	for i, r := range ranges {
		if dst, err = AppendQuery(dst, r); err != nil {
			return dst[:off], err
		}
		dst = appendF64(dst, sels[i])
	}
	return endFrame(dst, off), nil
}

// AppendEstimateResp appends a complete FrameEstimateResp frame.
//
//selvet:zeroalloc
func AppendEstimateResp(dst []byte, generation int64, est float64) []byte {
	dst, off := beginFrame(dst, FrameEstimateResp)
	dst = binary.AppendUvarint(dst, uint64(generation))
	dst = appendF64(dst, est)
	return endFrame(dst, off)
}

// AppendEstimateBatchResp appends a complete FrameEstimateBatchResp frame.
//
//selvet:zeroalloc
func AppendEstimateBatchResp(dst []byte, generation int64, ests []float64) []byte {
	dst, off := beginFrame(dst, FrameEstimateBatchResp)
	dst = binary.AppendUvarint(dst, uint64(generation))
	dst = binary.AppendUvarint(dst, uint64(len(ests)))
	for _, v := range ests {
		dst = appendF64(dst, v)
	}
	return endFrame(dst, off)
}

// AppendFeedbackResp appends a complete FrameFeedbackResp frame.
//
//selvet:zeroalloc
func AppendFeedbackResp(dst []byte, generation int64, accepted, dropped int) []byte {
	dst, off := beginFrame(dst, FrameFeedbackResp)
	dst = binary.AppendUvarint(dst, uint64(generation))
	dst = binary.AppendUvarint(dst, uint64(accepted))
	dst = binary.AppendUvarint(dst, uint64(dropped))
	return endFrame(dst, off)
}

// AppendErrorResp appends a complete FrameError frame.
//
//selvet:zeroalloc
func AppendErrorResp(dst []byte, code byte, msg string) []byte {
	dst, off := beginFrame(dst, FrameError)
	dst = append(dst, code)
	dst = binary.AppendUvarint(dst, uint64(len(msg)))
	dst = append(dst, msg...)
	return endFrame(dst, off)
}

// Response is one decoded response frame. Ests and Msg alias the payload
// passed to DecodeResponse.
type Response struct {
	Type       byte
	Generation int64
	Est        float64   // FrameEstimateResp
	Ests       []float64 // FrameEstimateBatchResp; reuses the caller's slice
	Accepted   int       // FrameFeedbackResp
	Dropped    int       // FrameFeedbackResp
	Code       byte      // FrameError
	Msg        []byte    // FrameError; aliases the payload
}

// DecodeResponse decodes one response frame payload. resp.Ests keeps its
// capacity across calls so batch decoding does not reallocate.
func DecodeResponse(typ byte, payload []byte, resp *Response) error {
	*resp = Response{Type: typ, Ests: resp.Ests[:0]}
	r := reader{b: payload}
	switch typ {
	case FrameEstimateResp, FrameEstimateBatchResp, FrameFeedbackResp:
		gen, err := r.uvarint()
		if err != nil {
			return err
		}
		resp.Generation = int64(gen)
	case FrameError:
		code, err := r.u8()
		if err != nil {
			return err
		}
		n64, err := r.uvarint()
		if err != nil {
			return err
		}
		if uint64(r.remaining()) != n64 {
			return errTruncated
		}
		resp.Code = code
		resp.Msg = r.b[r.i:]
		return nil
	default:
		return ErrUnknownFrame
	}
	switch typ {
	case FrameEstimateResp:
		v, err := r.f64()
		if err != nil {
			return err
		}
		resp.Est = v
	case FrameEstimateBatchResp:
		n64, err := r.uvarint()
		if err != nil {
			return err
		}
		if n64 > uint64(r.remaining()/8) {
			return errCount
		}
		for k := 0; k < int(n64); k++ {
			v, _ := r.f64()
			resp.Ests = append(resp.Ests, v)
		}
	case FrameFeedbackResp:
		acc, err := r.uvarint()
		if err != nil {
			return err
		}
		drop, err := r.uvarint()
		if err != nil {
			return err
		}
		resp.Accepted, resp.Dropped = int(acc), int(drop)
	}
	if r.remaining() != 0 {
		return errTrailing
	}
	return nil
}
