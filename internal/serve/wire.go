package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"repro/internal/geom"
)

// This file is the zero-allocation JSON wire codec of the request path.
// encoding/json allocates per request (decoder state, field maps, one
// slice per coordinate array, reflect-driven encoding); at the measured
// serve throughput that garbage dominates the envelope cost. The codec
// here parses the estimate, stream and feedback request grammars by hand
// in one scanner, converting each number as it scans it, into pooled
// arenas owned by estimateScratch, and renders estimate responses with
// append-style writers, so a steady-state estimate request performs no
// heap allocation at all (gated by TestEstimateHandlerZeroAlloc and
// scripts/verify.sh). Feedback copies its observations out of the arenas
// (acceptFeedback), because the feedback ring keeps them; its response
// and the control plane's stay on encoding/json (writeJSON).

// Shared header values assigned with a map store rather than Header.Set,
// which allocates a fresh one-element slice per call.
var (
	jsonContentType   = []string{"application/json"}
	ndjsonContentType = []string{"application/x-ndjson"}
)

// defaultModelBytes is DefaultModelName for byte-oriented name handling.
var defaultModelBytes = []byte(DefaultModelName)

// Per-query validation errors, shared with the encoding/json reference
// decoder the tests keep (wireQuery.toRange), so both report identical
// messages.
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
// encoding/json nil-vs-empty semantics of the reference wireQuery.
type queryParts struct {
	lo, hi, a, center geom.Point
	b, radius, sel    float64
	hasLo, hasHi      bool
	hasA, hasB        bool
	hasCenter         bool
	hasRadius         bool
	hasSel            bool // a feedback observation's label
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
// the encoding/json decoder it replaced.
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

// parseString decodes a JSON string. The fast path (no escapes, valid
// UTF-8) returns a window into the input; other strings decode into the
// scratch buffer.
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
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRune(p.b[p.i:])
			if r == utf8.RuneError && size == 1 {
				return p.parseStringSlow(start)
			}
			p.i += size
			continue
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
		case c >= utf8.RuneSelf:
			// Invalid UTF-8 decodes to U+FFFD, one per bad byte, as
			// encoding/json coerces it.
			r, size := utf8.DecodeRune(p.b[p.i:])
			buf = utf8.AppendRune(buf, r)
			p.i += size
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
// and converts it in the same pass, so the codec accepts exactly the
// numbers encoding/json accepts and returns strconv.ParseFloat's bits for
// each. A leading '+', a bare '.' or a dangling exponent fails here; after
// a leading zero the token ends, so "01" fails at the '1' in the caller.
//
//selvet:zeroalloc
func (p *wireParser) parseFloat() (float64, error) {
	p.ws()
	start := p.i
	end, neg, m, nd, e10, err := scanNumber(p.b, start)
	if err != nil {
		return 0, err
	}
	p.i = end
	var f float64
	switch numberPath(m, nd, e10) {
	case pathFloat:
		f = floatPath(m, e10)
	case pathInteger:
		f = integerPath(m, e10)
	default:
		v, err := strconv.ParseFloat(bstr(p.b[start:p.i]), 64)
		if err != nil {
			return 0, fmt.Errorf("invalid number at offset %d", start)
		}
		return v, nil
	}
	if neg {
		f = -f
	}
	return f, nil
}

// scanNumber scans the JSON number token at b[start:] and returns the
// index just past it, with the token as a decimal: its value is
// (-1 if neg) · m · 10^e10, where m holds the first maxMantDigits of the
// token's nd significant digits. e10 is only meaningful when
// nd ≤ maxMantDigits; a longer token goes to strconv.
//
//selvet:zeroalloc
func scanNumber(b []byte, start int) (i int, neg bool, m uint64, nd, e10 int, err error) {
	i = start
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		d0 := i
		if i, m, nd = mantissa(b, i, 0, 0); i == d0 {
			return i, false, 0, 0, 0, fmt.Errorf("expected number at offset %d", start)
		}
	}
	if i < len(b) && b[i] == '.' {
		i++
		f0 := i
		if nd == 0 {
			// Zeros before the first significant digit only move the
			// decimal point.
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		if i, m, nd = mantissa(b, i, m, nd); i == f0 {
			return i, false, 0, 0, 0, fmt.Errorf("invalid number at offset %d", start)
		}
		e10 = f0 - i
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		x0, x := i, 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if x < 1<<20 { // past any exponent a float64 can use
				x = x*10 + int(b[i]-'0')
			}
		}
		if i == x0 {
			return i, false, 0, 0, 0, fmt.Errorf("invalid number at offset %d", start)
		}
		if eneg {
			x = -x
		}
		e10 += x
	}
	return i, neg, m, nd, e10, nil
}

// mantissa consumes the run of decimal digits at b[i:], appending them
// to the nd significant digits already in m. Digits past maxMantDigits
// are counted but not kept. While they fit, eight digits at a time are
// checked and folded in with a few word operations.
//
//selvet:zeroalloc
func mantissa(b []byte, i int, m uint64, nd int) (int, uint64, int) {
	for nd <= maxMantDigits-8 && i+8 <= len(b) {
		v := binary.LittleEndian.Uint64(b[i:])
		if ((v+0x4646464646464646)|(v-0x3030303030303030))&0x8080808080808080 != 0 {
			break // not eight ASCII digits
		}
		// Combine digit pairs, then pairs of pairs, then the two halves
		// (the byte at the lowest address is the most significant digit).
		v -= 0x3030303030303030
		v = v*10 + v>>8
		v = ((v&0x000000FF000000FF)*(100+1000000<<32) + (v>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
		m = m*100000000 + v
		nd += 8
		i += 8
	}
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		if nd < maxMantDigits {
			m = m*10 + uint64(d)
		}
		nd++
	}
	return i, m, nd
}

// maxMantDigits is the most significant digits scanNumber keeps: any
// 19-digit integer is below 10^19 < 2^64. maxExp10 is the largest power
// of ten a float64 holds exactly (5^22 < 2^53).
const (
	maxMantDigits = 19
	maxExp10      = 22
)

// The conversion paths of a scanned number.
const (
	pathFloat   = iota // m ≤ 2^53, |e10| ≤ 22: one float64 multiply or divide
	pathInteger        // 2^53 < m < 10^19, |e10| ≤ 22: 128-bit integer arithmetic
	pathStrconv        // anything else: strconv.ParseFloat on the token
)

// numberPath picks how m·10^e10 is converted; see DESIGN.md §13 for why
// the first two paths are exact.
//
//selvet:zeroalloc
func numberPath(m uint64, nd, e10 int) int {
	switch {
	case nd > maxMantDigits || e10 < -maxExp10 || e10 > maxExp10:
		return pathStrconv
	case m <= 1<<53:
		return pathFloat
	}
	return pathInteger
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [maxExp10 + 1]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// pow5 holds 5^k for k ≤ maxExp10; each is below 2^52.
var pow5 = [maxExp10 + 1]uint64{
	1, 5, 25, 125, 625, 3125, 15625, 78125, 390625, 1953125, 9765625,
	48828125, 244140625, 1220703125, 6103515625, 30517578125,
	152587890625, 762939453125, 3814697265625, 19073486328125,
	95367431640625, 476837158203125, 2384185791015625,
}

// floatPath converts m·10^e10 for m ≤ 2^53 and |e10| ≤ 22 (Clinger's
// fast path): float64(m) and 10^|e10| are both exact, so the one multiply
// or divide is the only rounding, and IEEE arithmetic rounds it
// correctly.
//
//selvet:zeroalloc
func floatPath(m uint64, e10 int) float64 {
	if e10 < 0 {
		return float64(m) / pow10[-e10]
	}
	return float64(m) * pow10[e10]
}

// integerPath converts m·10^e10 for 2^53 < m < 10^19 and |e10| ≤ 22 with
// integer arithmetic. With 10^e10 = 5^e10·2^e10, it forms the top 64 bits
// of m·5^e10 (bits.Mul64) or of m·2^s/5^-e10 (bits.Div64), plus a sticky
// bit for anything below them, and rounds that to 53 bits, half to even.
// The value lies between 9e-7 and 1e41, a normal float64, so the result
// is assembled from its fields directly.
//
//selvet:zeroalloc
func integerPath(m uint64, e10 int) float64 {
	var top uint64 // the value's leading 64 bits, bit 63 set
	var e2 int     // value ≈ top·2^e2
	var sticky bool
	if e10 >= 0 {
		hi, lo := bits.Mul64(m, pow5[e10])
		if hi == 0 {
			lz := bits.LeadingZeros64(lo)
			top, e2 = lo<<lz, e10-lz
		} else {
			lz := bits.LeadingZeros64(hi)
			top, e2 = hi<<lz|lo>>(64-lz), e10+64-lz
			sticky = lo<<lz != 0
		}
	} else {
		// Shift m left by s so the quotient has 63 or 64 bits and the
		// numerator's high word stays below the divisor.
		d := pow5[-e10]
		s := 63 - bits.Len64(m) + bits.Len64(d)
		q, r := bits.Div64(m>>(64-s), m<<s, d)
		lz := bits.LeadingZeros64(q)
		top, e2 = q<<lz, e10-s-lz
		sticky = r != 0
	}
	mant, rest := top>>11, top&(1<<11-1)
	if rest > 1<<10 || rest == 1<<10 && (sticky || mant&1 != 0) {
		mant++
		if mant == 1<<53 {
			mant >>= 1
			e2++
		}
	}
	return math.Float64frombits(uint64(e2+11+52+1023)<<52 | mant&(1<<52-1))
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
// records the window and presence flag. A repeated key replaces the
// earlier value and null clears it, as encoding/json assigns the field.
//
//selvet:zeroalloc
func (p *wireParser) parseOptArray(dst *geom.Point, has *bool) error {
	if p.tryNull() {
		*dst, *has = nil, false
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

// parseOptFloat parses a number (or null) and records presence, with
// parseOptArray's replace and clear rules.
//
//selvet:zeroalloc
func (p *wireParser) parseOptFloat(dst *float64, has *bool) error {
	if p.tryNull() {
		*dst, *has = 0, false
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

// parseKey parses an object member's key and the ':' after it.
//
//selvet:zeroalloc
func (p *wireParser) parseKey() ([]byte, error) {
	key, err := p.parseString()
	if err != nil {
		return nil, err
	}
	return key, p.expect(':')
}

// endMember consumes the ',' or '}' after an object member and reports
// whether the object ended.
//
//selvet:zeroalloc
func (p *wireParser) endMember() (bool, error) {
	p.ws()
	if p.i >= len(p.b) {
		return false, errUnterminated
	}
	switch p.b[p.i] {
	case ',':
		p.i++
		return false, nil
	case '}':
		p.i++
		return true, nil
	}
	return false, fmt.Errorf("expected ',' or '}' at offset %d", p.i)
}

// openObject consumes an object's '{' and reports whether the object is
// empty, consuming its '}' too.
//
//selvet:zeroalloc
func (p *wireParser) openObject() (empty bool, err error) {
	if err := p.expect('{'); err != nil {
		return false, err
	}
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == '}' {
		p.i++
		return true, nil
	}
	return false, nil
}

// openBody opens a request body's object. A body that is just null
// decodes to the empty request, as json.Decoder decodes it, and reports
// empty; what follows the first value is not read.
//
//selvet:zeroalloc
func (p *wireParser) openBody() (empty bool, err error) {
	if p.tryNull() {
		return true, nil
	}
	return p.openObject()
}

// parseModel parses a request's "model" value into sc.name. A null keeps
// the name, as encoding/json leaves a string field alone.
//
//selvet:zeroalloc
func (p *wireParser) parseModel() error {
	if p.tryNull() {
		return nil
	}
	name, err := p.parseString()
	if err != nil {
		return err
	}
	p.sc.name = append(p.sc.name[:0], name...)
	return nil
}

// parseQueryObject parses one wire query object into qp; withSel admits
// the "sel" label of a feedback observation. Unknown fields are rejected,
// as json.Decoder's DisallowUnknownFields rejects them.
//
//selvet:zeroalloc
func (p *wireParser) parseQueryObject(qp *queryParts, withSel bool) error {
	*qp = queryParts{}
	if empty, err := p.openObject(); empty || err != nil {
		return err
	}
	for {
		key, err := p.parseKey()
		if err != nil {
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
		case "sel":
			if !withSel {
				return fmt.Errorf("unknown field %q", key)
			}
			err = p.parseOptFloat(&qp.sel, &qp.hasSel)
		default:
			return fmt.Errorf("unknown field %q", key)
		}
		if err != nil {
			return err
		}
		if end, err := p.endMember(); end || err != nil {
			return err
		}
	}
}

// addQuery validates qp and appends its range (or nil plus the semantic
// error) to the scratch, keeping indexes aligned with the request order.
//
//selvet:zeroalloc
func (p *wireParser) addQuery(qp *queryParts) {
	r, verr := qp.build(p.sc)
	p.sc.ranges = append(p.sc.ranges, r) // nil when verr != nil
	p.sc.qerrs = append(p.sc.qerrs, verr)
}

// parseLine parses one NDJSON stream line: a query object, then nothing
// but whitespace.
//
//selvet:zeroalloc
func (p *wireParser) parseLine(qp *queryParts) error {
	if err := p.parseQueryObject(qp, false); err != nil {
		return err
	}
	if p.ws(); p.i < len(p.b) {
		return fmt.Errorf("expected end of line at offset %d", p.i)
	}
	p.addQuery(qp)
	return nil
}

// parseQueryArray parses an array of query objects, or of feedback
// observations when withSel, adding each in order and its label to
// sc.sels (NaN when sel is absent: no JSON number decodes to NaN). A null
// element adds an empty query, as encoding/json leaves a zero element.
// It returns the element count.
//
//selvet:zeroalloc
func (p *wireParser) parseQueryArray(qp *queryParts, withSel bool) (int, error) {
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
		if p.tryNull() {
			*qp = queryParts{}
		} else if err := p.parseQueryObject(qp, withSel); err != nil {
			return n, err
		}
		p.addQuery(qp)
		if withSel {
			sel := math.NaN()
			if qp.hasSel {
				sel = qp.sel
			}
			p.sc.sels = append(p.sc.sels, sel)
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

// parseEstimateRequest parses the whole estimate request body from
// sc.body. On return sc.name holds the raw model name (empty when
// omitted), sc.ranges/sc.qerrs hold one entry per query in request order,
// and the flags report which request forms appeared. A non-nil error is a
// transport-level decode failure ("invalid request body"); per-query
// validation problems are in sc.qerrs instead. A repeated "query" or
// "queries" replaces the earlier value and null clears it, as in
// encoding/json, except that a repeated query object replaces the earlier
// one where encoding/json would merge the two field by field.
//
//selvet:zeroalloc
func parseEstimateRequest(sc *estimateScratch) (hasQuery bool, nQueries int, err error) {
	p := wireParser{b: sc.body, sc: sc}
	var qp queryParts
	if empty, err := p.openBody(); empty || err != nil {
		return false, 0, err
	}
	qAt, qsAt := 0, 0 // where the last query and queries values start in sc.ranges
	for {
		key, err := p.parseKey()
		if err != nil {
			return hasQuery, nQueries, err
		}
		switch string(key) {
		case "model":
			err = p.parseModel()
		case "query":
			hasQuery = false
			if !p.tryNull() {
				qAt = len(sc.ranges)
				if err = p.parseQueryObject(&qp, false); err == nil {
					p.addQuery(&qp)
					hasQuery = true
				}
			}
		case "queries":
			nQueries = 0
			if !p.tryNull() {
				qsAt = len(sc.ranges)
				nQueries, err = p.parseQueryArray(&qp, false)
			}
		default:
			return hasQuery, nQueries, fmt.Errorf("unknown field %q", key)
		}
		if err != nil {
			return hasQuery, nQueries, err
		}
		end, err := p.endMember()
		if err != nil {
			return hasQuery, nQueries, err
		}
		if end {
			break
		}
	}
	switch {
	case hasQuery && nQueries > 0: // the handler refuses both forms
	case hasQuery:
		sc.keepRanges(qAt, qAt+1)
	default:
		sc.keepRanges(qsAt, qsAt+nQueries)
	}
	return hasQuery, nQueries, nil
}

// parseFeedbackRequest parses a /v1/feedback body from sc.body: the model
// name into sc.name and, per observation in request order, its range or
// query fault into sc.ranges/sc.qerrs as for estimate queries and its
// label into sc.sels. A repeated "observations" replaces the earlier list
// and null clears it. A non-nil error is a transport-level decode failure.
//
//selvet:zeroalloc
func parseFeedbackRequest(sc *estimateScratch) error {
	p := wireParser{b: sc.body, sc: sc}
	var qp queryParts
	if empty, err := p.openBody(); empty || err != nil {
		return err
	}
	for {
		key, err := p.parseKey()
		if err != nil {
			return err
		}
		switch string(key) {
		case "model":
			err = p.parseModel()
		case "observations":
			sc.ranges, sc.qerrs, sc.sels = sc.ranges[:0], sc.qerrs[:0], sc.sels[:0]
			if !p.tryNull() {
				_, err = p.parseQueryArray(&qp, true)
			}
		default:
			return fmt.Errorf("unknown field %q", key)
		}
		if err != nil {
			return err
		}
		if end, err := p.endMember(); end || err != nil {
			return err
		}
	}
}

// keepRanges keeps only the slots [start, end) of sc.ranges and sc.qerrs.
//
//selvet:zeroalloc
func (sc *estimateScratch) keepRanges(start, end int) {
	n := copy(sc.ranges, sc.ranges[start:end])
	copy(sc.qerrs, sc.qerrs[start:end])
	sc.ranges, sc.qerrs = sc.ranges[:n], sc.qerrs[:n]
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
	sc.sels = sc.sels[:0]
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
