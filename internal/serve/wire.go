package serve

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"repro/internal/geom"
)

// This file is the zero-allocation JSON wire codec for the estimate hot
// path. encoding/json allocates per request (decoder state, field maps,
// one slice per coordinate array, reflect-driven encoding); at the
// measured serve throughput that garbage dominates the envelope cost.
// The codec here parses the estimate request grammar by hand into pooled
// arenas owned by estimateScratch and renders responses with append-style
// writers, so a steady-state single-estimate request performs no heap
// allocation at all (gated by TestEstimateHandlerZeroAlloc and
// scripts/verify.sh).
//
// Scope: only the estimate request/response grammar lives here. The
// feedback path keeps encoding/json because its observations outlive the
// request (the feedback ring retains them), so they must be deep-copied
// anyway; control-plane endpoints are not hot.

// Shared header values assigned with a map store rather than Header.Set,
// which allocates a fresh one-element slice per call.
var (
	jsonContentType   = []string{"application/json"}
	ndjsonContentType = []string{"application/x-ndjson"}
)

// defaultModelBytes is DefaultModelName for byte-oriented name handling.
var defaultModelBytes = []byte(DefaultModelName)

// Per-query validation errors, shared with wireQuery.toRange so both
// decode paths report identical messages.
var (
	errBoxDims      = errors.New("box query needs lo and hi of equal positive dimension")
	errHalfspaceAB  = errors.New("halfspace query needs a and b")
	errBallCR       = errors.New("ball query needs center and radius")
	errBallNegative = errors.New("ball query needs a non-negative radius")
	errNoClass      = errors.New("query must specify lo/hi, a/b, or center/radius")
)

// bstr views b as a string without copying. The result aliases b and must
// not outlive it; use only for transient strconv/map-lookup calls.
//
//selvet:zeroalloc
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// ---- decoding ----

// queryParts is one wire query mid-parse: raw field groups plus presence
// flags. Presence (not emptiness) drives class selection, mirroring the
// encoding/json nil-vs-empty semantics of wireQuery.
type queryParts struct {
	lo, hi, a, center geom.Point
	b, radius         float64
	hasLo, hasHi      bool
	hasA, hasB        bool
	hasCenter         bool
	hasRadius         bool
}

// build validates the parts and appends the resulting concrete geometry
// to the scratch arenas, returning a pointer into them. Pointers keep the
// geom.Range interface value allocation-free (a *geom.Box fits the
// interface word; the value-receiver method set carries over). Arena
// growth may relocate the backing array, but previously returned pointers
// keep addressing the old block, which remains valid for the request.
//
//selvet:zeroalloc
func (qp *queryParts) build(sc *estimateScratch) (geom.Range, error) {
	switch {
	case qp.hasLo || qp.hasHi:
		if len(qp.lo) == 0 || len(qp.lo) != len(qp.hi) {
			return nil, errBoxDims
		}
		sc.boxes = append(sc.boxes, geom.Box{Lo: qp.lo, Hi: qp.hi})
		return &sc.boxes[len(sc.boxes)-1], nil
	case qp.hasA || qp.hasB:
		if len(qp.a) == 0 || !qp.hasB {
			return nil, errHalfspaceAB
		}
		sc.halfs = append(sc.halfs, geom.Halfspace{A: qp.a, B: qp.b})
		return &sc.halfs[len(sc.halfs)-1], nil
	case qp.hasCenter || qp.hasRadius:
		if len(qp.center) == 0 || !qp.hasRadius {
			return nil, errBallCR
		}
		if qp.radius < 0 {
			return nil, errBallNegative
		}
		sc.balls = append(sc.balls, geom.Ball{Center: qp.center, Radius: qp.radius})
		return &sc.balls[len(sc.balls)-1], nil
	}
	return nil, errNoClass
}

// wireParser scans one JSON document in place. Syntax errors and unknown
// fields are returned as errors (the transport-level "invalid request
// body" class); per-query semantic errors land in estimateScratch.qerrs
// so the handler can report every bad query in one response, exactly like
// the encoding/json path did.
type wireParser struct {
	b  []byte
	i  int
	sc *estimateScratch
}

var errUnterminated = errors.New("unexpected end of request body")

//selvet:zeroalloc
func (p *wireParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

//selvet:zeroalloc
func (p *wireParser) expect(c byte) error {
	p.ws()
	if p.i >= len(p.b) {
		return errUnterminated
	}
	if p.b[p.i] != c {
		return fmt.Errorf("expected %q at offset %d", string(c), p.i)
	}
	p.i++
	return nil
}

// tryNull consumes a JSON null if one is next. A null field is treated as
// absent, matching encoding/json decoding into omitempty pointers/slices.
//
//selvet:zeroalloc
func (p *wireParser) tryNull() bool {
	p.ws()
	if p.i+4 <= len(p.b) && string(p.b[p.i:p.i+4]) == "null" {
		p.i += 4
		return true
	}
	return false
}

// parseString decodes a JSON string. The fast path (no escapes) returns a
// window into the input; escaped strings decode into the scratch buffer.
// Either way the result is transient: callers copy what they keep.
//
//selvet:zeroalloc
func (p *wireParser) parseString() ([]byte, error) {
	p.ws()
	if p.i >= len(p.b) || p.b[p.i] != '"' {
		return nil, fmt.Errorf("expected string at offset %d", p.i)
	}
	p.i++
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c == '"' {
			s := p.b[start:p.i]
			p.i++
			return s, nil
		}
		if c == '\\' {
			return p.parseStringSlow(start)
		}
		if c < 0x20 {
			return nil, fmt.Errorf("invalid control character in string at offset %d", p.i)
		}
		p.i++
	}
	return nil, errUnterminated
}

//selvet:zeroalloc
func (p *wireParser) parseStringSlow(start int) ([]byte, error) {
	buf := append(p.sc.strbuf[:0], p.b[start:p.i]...)
	//selvet:ignore zeroalloc one closure on the escaped-string slow path keeps the grown buffer pooled; unescaped strings never reach it
	defer func() { p.sc.strbuf = buf[:0] }() // keep grown capacity pooled
	for p.i < len(p.b) {
		c := p.b[p.i]
		switch {
		case c == '"':
			p.i++
			return buf, nil
		case c == '\\':
			p.i++
			if p.i >= len(p.b) {
				return nil, errUnterminated
			}
			switch e := p.b[p.i]; e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				if p.i+4 >= len(p.b) {
					return nil, errUnterminated
				}
				v, err := strconv.ParseUint(bstr(p.b[p.i+1:p.i+5]), 16, 32)
				if err != nil {
					return nil, fmt.Errorf("invalid \\u escape at offset %d", p.i-1)
				}
				r := rune(v)
				p.i += 4
				if utf16.IsSurrogate(r) {
					// Combine a valid high/low pair into one rune, exactly
					// as encoding/json does; an unpaired half encodes as
					// U+FFFD (utf8.AppendRune substitutes it on its own).
					if r2 := p.lookaheadU(); r2 >= 0 {
						if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
							r = dec
							p.i += 6
						}
					}
				}
				buf = utf8.AppendRune(buf, r)
			default:
				return nil, fmt.Errorf("invalid escape \\%s at offset %d", string(e), p.i-1)
			}
			p.i++
		case c < 0x20:
			return nil, fmt.Errorf("invalid control character in string at offset %d", p.i)
		default:
			buf = append(buf, c)
			p.i++
		}
	}
	return nil, errUnterminated
}

// lookaheadU returns the code unit of a \uXXXX escape starting directly
// after the current position (p.i on the last consumed digit), or -1
// when the next bytes are not a well-formed \u escape.
//
//selvet:zeroalloc
func (p *wireParser) lookaheadU() rune {
	if p.i+7 > len(p.b) || p.b[p.i+1] != '\\' || p.b[p.i+2] != 'u' {
		return -1
	}
	v, err := strconv.ParseUint(bstr(p.b[p.i+3:p.i+7]), 16, 32)
	if err != nil {
		return -1
	}
	return rune(v)
}

// parseFloat scans one JSON number, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
// and converts only that token, so the codec accepts exactly the numbers
// encoding/json accepts. A leading '+', a bare '.' or a dangling exponent
// fails here; after a leading zero the token ends, so "01" fails at the
// '1' in the caller.
//
//selvet:zeroalloc
func (p *wireParser) parseFloat() (float64, error) {
	p.ws()
	start := p.i
	p.skip('-')
	if !p.skip('0') && p.digits() == 0 {
		return 0, fmt.Errorf("expected number at offset %d", start)
	}
	if p.skip('.') && p.digits() == 0 {
		return 0, fmt.Errorf("invalid number at offset %d", start)
	}
	if p.skip('e') || p.skip('E') {
		if !p.skip('+') {
			p.skip('-')
		}
		if p.digits() == 0 {
			return 0, fmt.Errorf("invalid number at offset %d", start)
		}
	}
	v, err := strconv.ParseFloat(bstr(p.b[start:p.i]), 64)
	if err != nil {
		return 0, fmt.Errorf("invalid number at offset %d", start)
	}
	return v, nil
}

// skip consumes c if it is the next byte.
//
//selvet:zeroalloc
func (p *wireParser) skip(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and returns its length.
//
//selvet:zeroalloc
func (p *wireParser) digits() int {
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// parseFloatArray parses a JSON number array by appending to the shared
// coordinate arena and returns the element count. The caller slices the
// window off the arena tail immediately; growth during later arrays may
// relocate the arena, but earlier windows keep addressing the old block.
//
//selvet:zeroalloc
func (p *wireParser) parseFloatArray() (int, error) {
	if err := p.expect('['); err != nil {
		return 0, err
	}
	start := len(p.sc.coords)
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == ']' {
		p.i++
		return 0, nil
	}
	for {
		v, err := p.parseFloat()
		if err != nil {
			return 0, err
		}
		p.sc.coords = append(p.sc.coords, v)
		p.ws()
		if p.i >= len(p.b) {
			return 0, errUnterminated
		}
		switch p.b[p.i] {
		case ',':
			p.i++
		case ']':
			p.i++
			return len(p.sc.coords) - start, nil
		default:
			return 0, fmt.Errorf("expected ',' or ']' at offset %d", p.i)
		}
	}
}

// parseOptArray parses a number array (or null) into the arena and
// records the window and presence flag.
//
//selvet:zeroalloc
func (p *wireParser) parseOptArray(dst *geom.Point, has *bool) error {
	if p.tryNull() {
		return nil
	}
	n, err := p.parseFloatArray()
	if err != nil {
		return err
	}
	*dst = geom.Point(p.sc.coords[len(p.sc.coords)-n:])
	*has = true
	return nil
}

// parseOptFloat parses a number (or null) and records presence.
//
//selvet:zeroalloc
func (p *wireParser) parseOptFloat(dst *float64, has *bool) error {
	if p.tryNull() {
		return nil
	}
	v, err := p.parseFloat()
	if err != nil {
		return err
	}
	*dst = v
	*has = true
	return nil
}

// parseQueryObject parses one wire query object into qp. Unknown fields
// are rejected, mirroring decodeBody's DisallowUnknownFields.
//
//selvet:zeroalloc
func (p *wireParser) parseQueryObject(qp *queryParts) error {
	*qp = queryParts{}
	if err := p.expect('{'); err != nil {
		return err
	}
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == '}' {
		p.i++
		return nil
	}
	for {
		key, err := p.parseString()
		if err != nil {
			return err
		}
		if err := p.expect(':'); err != nil {
			return err
		}
		switch string(key) {
		case "lo":
			err = p.parseOptArray(&qp.lo, &qp.hasLo)
		case "hi":
			err = p.parseOptArray(&qp.hi, &qp.hasHi)
		case "a":
			err = p.parseOptArray(&qp.a, &qp.hasA)
		case "b":
			err = p.parseOptFloat(&qp.b, &qp.hasB)
		case "center":
			err = p.parseOptArray(&qp.center, &qp.hasCenter)
		case "radius":
			err = p.parseOptFloat(&qp.radius, &qp.hasRadius)
		default:
			return fmt.Errorf("unknown field %q", key)
		}
		if err != nil {
			return err
		}
		p.ws()
		if p.i >= len(p.b) {
			return errUnterminated
		}
		switch p.b[p.i] {
		case ',':
			p.i++
		case '}':
			p.i++
			return nil
		default:
			return fmt.Errorf("expected ',' or '}' at offset %d", p.i)
		}
	}
}

// parseQuery parses one query object and appends its range (or nil plus
// the semantic error) to the scratch, keeping indexes aligned with the
// request order.
//
//selvet:zeroalloc
func (p *wireParser) parseQuery(qp *queryParts) error {
	if err := p.parseQueryObject(qp); err != nil {
		return err
	}
	r, verr := qp.build(p.sc)
	p.sc.ranges = append(p.sc.ranges, r) // nil when verr != nil
	p.sc.qerrs = append(p.sc.qerrs, verr)
	return nil
}

// parseEstimateRequest parses the whole estimate request body from
// sc.body. On return sc.name holds the raw model name (empty when
// omitted), sc.ranges/sc.qerrs hold one entry per query in request order,
// and the flags report which request forms appeared. A non-nil error is a
// transport-level decode failure ("invalid request body"); per-query
// validation problems are in sc.qerrs instead.
//
//selvet:zeroalloc
func parseEstimateRequest(sc *estimateScratch) (hasQuery bool, nQueries int, err error) {
	p := wireParser{b: sc.body, sc: sc}
	var qp queryParts
	if err := p.expect('{'); err != nil {
		return false, 0, err
	}
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == '}' {
		return false, 0, nil
	}
	for {
		key, err := p.parseString()
		if err != nil {
			return hasQuery, nQueries, err
		}
		if err := p.expect(':'); err != nil {
			return hasQuery, nQueries, err
		}
		switch string(key) {
		case "model":
			if !p.tryNull() {
				name, err := p.parseString()
				if err != nil {
					return hasQuery, nQueries, err
				}
				sc.name = append(sc.name[:0], name...)
			}
		case "query":
			if !p.tryNull() {
				if err := p.parseQuery(&qp); err != nil {
					return hasQuery, nQueries, err
				}
				hasQuery = true
			}
		case "queries":
			if !p.tryNull() {
				n, err := p.parseQueryArray(&qp)
				if err != nil {
					return hasQuery, nQueries, err
				}
				nQueries += n
			}
		default:
			return hasQuery, nQueries, fmt.Errorf("unknown field %q", key)
		}
		p.ws()
		if p.i >= len(p.b) {
			return hasQuery, nQueries, errUnterminated
		}
		switch p.b[p.i] {
		case ',':
			p.i++
		case '}':
			return hasQuery, nQueries, nil
		default:
			return hasQuery, nQueries, fmt.Errorf("expected ',' or '}' at offset %d", p.i)
		}
	}
}

//selvet:zeroalloc
func (p *wireParser) parseQueryArray(qp *queryParts) (int, error) {
	if err := p.expect('['); err != nil {
		return 0, err
	}
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == ']' {
		p.i++
		return 0, nil
	}
	n := 0
	for {
		if err := p.parseQuery(qp); err != nil {
			return n, err
		}
		n++
		p.ws()
		if p.i >= len(p.b) {
			return n, errUnterminated
		}
		switch p.b[p.i] {
		case ',':
			p.i++
		case ']':
			p.i++
			return n, nil
		default:
			return n, fmt.Errorf("expected ',' or ']' at offset %d", p.i)
		}
	}
}

// resetWire clears the per-request decode state while keeping every
// pooled capacity.
//
//selvet:zeroalloc
func (sc *estimateScratch) resetWire() {
	sc.name = sc.name[:0]
	sc.coords = sc.coords[:0]
	sc.boxes = sc.boxes[:0]
	sc.halfs = sc.halfs[:0]
	sc.balls = sc.balls[:0]
	sc.ranges = sc.ranges[:0]
	sc.qerrs = sc.qerrs[:0]
}

// ---- encoding ----

// appendJSONFloat renders a float64 the way encoding/json does ('f' for
// ordinary magnitudes, 'e' with a trimmed exponent otherwise), so the
// hand-rolled encoder is byte-compatible with the old reflect-based one.
//
//selvet:zeroalloc
func appendJSONFloat(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		// Estimates are clamped to [0,1]; this matches encoding/json's
		// refusal to emit non-finite numbers without aborting the response.
		return append(dst, '0')
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Trim "e-09" to "e-9" like encoding/json.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendJSONString renders s as a JSON string with the escapes required
// by the grammar; multi-byte UTF-8 passes through unescaped.
//
//selvet:zeroalloc
func appendJSONString(dst []byte, s []byte) []byte {
	const hexdigits = "0123456789abcdef"
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c >= 0x20:
			dst = append(dst, c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		case c == '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexdigits[c>>4], hexdigits[c&0xf])
		}
	}
	return append(dst, '"')
}

// appendEstimateResponse renders the estimate response (single or batch)
// exactly as encoding/json rendered estimateResponse, trailing newline
// included.
//
//selvet:zeroalloc
func appendEstimateResponse(dst []byte, name []byte, generation int64, ests []float64, single bool) []byte {
	dst = append(dst, `{"model":`...)
	dst = appendJSONString(dst, name)
	dst = append(dst, `,"generation":`...)
	dst = strconv.AppendInt(dst, generation, 10)
	if single {
		dst = append(dst, `,"estimate":`...)
		dst = appendJSONFloat(dst, ests[0])
	} else {
		dst = append(dst, `,"estimates":[`...)
		for i, v := range ests {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONFloat(dst, v)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}', '\n')
}
