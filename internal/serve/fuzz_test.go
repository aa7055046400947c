package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/geom"
)

// Differential fuzz targets for the hand-written JSON codec (wire.go).
// The oracle is what the handlers ran before it: json.NewDecoder with
// DisallowUnknownFields, decoding the body's first value into the
// reference types of wireref_test.go. Two divergences are intended, and
// the oracle knows both (DESIGN.md §13):
//
//   - keys match exactly, while encoding/json folds case: it takes "LO"
//     or "Query", and the wire parser refuses them as unknown fields;
//   - a repeated query object replaces the earlier one, while
//     encoding/json decodes it into the earlier one, merging the two field
//     by field. The oracle's query types start each decode from the zero
//     query, which is the replace rule.
//
// Running "go test" runs the seed corpora below; "go test -fuzz" explores.

// refQuery decodes as wireQuery, from the zero query on every decode.
type refQuery struct{ wireQuery }

func (q *refQuery) UnmarshalJSON(b []byte) error {
	q.wireQuery = wireQuery{}
	return strictDecode(b, &q.wireQuery)
}

// refObservation decodes as observation, from the zero observation.
type refObservation struct{ observation }

func (o *refObservation) UnmarshalJSON(b []byte) error {
	o.observation = observation{}
	return strictDecode(b, &o.observation)
}

type refEstimateRequest struct {
	Model   string     `json:"model,omitempty"`
	Query   *refQuery  `json:"query,omitempty"`
	Queries []refQuery `json:"queries,omitempty"`
}

type refFeedbackRequest struct {
	Model        string           `json:"model,omitempty"`
	Observations []refObservation `json:"observations"`
}

// strictDecode decodes the first JSON value of b into v, refusing
// unknown fields.
func strictDecode(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// wireKeys are the object keys of every request grammar.
var wireKeys = []string{"model", "query", "queries", "observations", "lo", "hi", "a", "b", "center", "radius", "sel"}

// hasFoldedKey reports whether body's first value holds a string that
// matches a wire key only up to case: the one place encoding/json accepts
// what the wire parser refuses.
func hasFoldedKey(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		s, ok := tok.(string)
		if !ok {
			continue
		}
		for _, k := range wireKeys {
			if s != k && strings.EqualFold(s, k) {
				return true
			}
		}
	}
}

// rangeBits renders a decoded range as its class and coordinate bits, so
// -0 and 0 differ and the comparison is bit for bit.
func rangeBits(r geom.Range) []uint64 {
	var class uint64
	var vals []float64
	switch q := r.(type) {
	case *geom.Box:
		class, vals = 1, append(append(vals, q.Lo...), q.Hi...)
	case geom.Box:
		class, vals = 1, append(append(vals, q.Lo...), q.Hi...)
	case *geom.Halfspace:
		class, vals = 2, append(vals, q.A...)
		vals = append(vals, q.B)
	case geom.Halfspace:
		class, vals = 2, append(vals, q.A...)
		vals = append(vals, q.B)
	case *geom.Ball:
		class, vals = 3, append(vals, q.Center...)
		vals = append(vals, q.Radius)
	case geom.Ball:
		class, vals = 3, append(vals, q.Center...)
		vals = append(vals, q.Radius)
	}
	out := []uint64{class, uint64(r.Dim())}
	for _, v := range vals {
		out = append(out, math.Float64bits(v))
	}
	return out
}

// checkQueries compares the parser's slots in sc with the oracle's
// queries: the same fault text, or the same range bit for bit.
func checkQueries(t *testing.T, body []byte, sc *estimateScratch, want []wireQuery) {
	t.Helper()
	if len(sc.ranges) != len(want) || len(sc.qerrs) != len(want) {
		t.Fatalf("%q: %d slots, encoding/json decoded %d", body, len(sc.ranges), len(want))
	}
	for i, wq := range want {
		wr, werr := wq.toRange()
		if gerr := sc.qerrs[i]; (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("%q query %d: fault %v, encoding/json says %v", body, i, gerr, werr)
		}
		if werr == nil && !equalBits(rangeBits(sc.ranges[i]), rangeBits(wr)) {
			t.Fatalf("%q query %d: parsed %v, encoding/json says %v", body, i, sc.ranges[i], wr)
		}
	}
}

func equalBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// requestSeeds are bodies for both request grammars: repeated keys,
// nulls at every level, case-folded keys, escapes, invalid UTF-8, number
// edge cases and malformed JSON.
var requestSeeds = []string{
	`{"query":{"lo":[0.1,0.2],"hi":[0.5,0.6]}}`,
	`{"model":"default","queries":[{"lo":[0],"hi":[1]},{"a":[1,2],"b":0.5},{"center":[0.5],"radius":0.25}]}`,
	`{"query":{"lo":[0.1],"hi":[0.2]},"query":{"lo":[0.3],"hi":[0.4]}}`,
	`{"query":{"lo":[0.1],"hi":[0.2]},"query":{"a":[1],"b":0}}`,
	`{"query":{"lo":[0.1],"hi":[0.2]},"query":null}`,
	`{"queries":[{"lo":[0],"hi":[1]},{"lo":[2],"hi":[3]}],"queries":[{"a":[1],"b":0}]}`,
	`{"queries":[{"lo":[0],"hi":[1]}],"queries":[]}`,
	`{"queries":[{"lo":[0],"hi":[1]}],"queries":null,"query":{"lo":[0],"hi":[1]}}`,
	`{"query":{"lo":[0.1,0.2],"lo":null,"a":[1,1],"b":0.5}}`,
	`{"query":{"b":1,"b":null,"a":[1]}}`,
	`{"query":{"lo":[1,2],"lo":[3],"hi":[4]}}`,
	`{"queries":[null,{"lo":[0],"hi":[1]}]}`,
	`{"query":{},"queries":[{}]}`,
	`{"model":"a","model":null}`,
	`{"model":"a","model":"b","query":{"lo":[0],"hi":[1]}}`,
	`{"QUERY":{"lo":[0],"hi":[1]}}`,
	`{"query":{"LO":[0],"Hi":[1]}}`,
	`{"model":"a\"b\\cé😀\ud83d"}`,
	"{\"model\":\"\xff\xfe ok \xe2\x82\"}",
	`null`,
	`null x`,
	`nullx`,
	` {} trailing`,
	`{"query":{"lo":[-0],"hi":[0]}}`,
	`{"query":{"lo":[9007199254740993],"hi":[1e22]}}`,
	`{"query":{"lo":[1e23,12345678901234567890],"hi":[1234567890123456789e-22,0.000000000000000000001]}}`,
	`{"query":{"lo":[1e-400],"hi":[1]}}`,
	`{"query":{"lo":[1e400],"hi":[1]}}`,
	`{"query":{"lo":[01],"hi":[1]}}`,
	`{"query":{"lo":[1.],"hi":[1]}}`,
	`{"query":{"center":[0.5],"radius":-1}}`,
	`{"query":{"lo":[1]},"nope":1}`,
	`{"query":{"lo":[1],"hi":[2]},}`,
	`{"query":{"lo":[1],"hi":[2]}`,
	`{"observations":[{"lo":[0,0],"hi":[0.5,0.5],"sel":0.25}]}`,
	`{"model":"m","observations":[{"lo":[0],"hi":[1],"sel":1},{"a":[1],"b":0.5,"sel":0}]}`,
	`{"observations":[{"lo":[0],"hi":[1]},{"sel":0.5},null]}`,
	`{"observations":[{"lo":[0],"hi":[1],"sel":0.5,"sel":null}]}`,
	`{"observations":[{"lo":[0],"hi":[1],"sel":0.5}],"observations":[{"center":[0],"radius":1,"sel":2}]}`,
	`{"observations":[{"lo":[0],"hi":[1],"sel":0.5}],"observations":null}`,
	`{"observations":[{"lo":[0],"hi":[1],"SEL":0.5}]}`,
	`{"observations":[{"lo":[0],"hi":[1],"sel":-0}]}`,
	`{"query":{"lo":[0],"hi":[1],"sel":0.5}}`,
}

func FuzzParseEstimateRequest(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want refEstimateRequest
		werr := strictDecode(body, &want)
		sc := new(estimateScratch)
		sc.body = body
		sc.resetWire()
		hasQuery, nQueries, perr := parseEstimateRequest(sc)
		if perr != nil && werr == nil && hasFoldedKey(body) {
			return // keys match exactly
		}
		if (perr == nil) != (werr == nil) {
			t.Fatalf("%q: parser error %v, encoding/json error %v", body, perr, werr)
		}
		if werr != nil {
			return
		}
		if string(sc.name) != want.Model {
			t.Fatalf("%q: model %q, encoding/json says %q", body, sc.name, want.Model)
		}
		if hasQuery != (want.Query != nil) || nQueries != len(want.Queries) {
			t.Fatalf("%q: forms (%v, %d), encoding/json says (%v, %d)", body, hasQuery, nQueries, want.Query != nil, len(want.Queries))
		}
		if hasQuery && nQueries > 0 {
			return // the handler refuses both forms
		}
		var wqs []wireQuery
		if want.Query != nil {
			wqs = append(wqs, want.Query.wireQuery)
		}
		for _, q := range want.Queries {
			wqs = append(wqs, q.wireQuery)
		}
		checkQueries(t, body, sc, wqs)
	})
}

func FuzzParseFeedbackRequest(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want refFeedbackRequest
		werr := strictDecode(body, &want)
		sc := new(estimateScratch)
		sc.body = body
		sc.resetWire()
		perr := parseFeedbackRequest(sc)
		if perr != nil && werr == nil && hasFoldedKey(body) {
			return // keys match exactly
		}
		if (perr == nil) != (werr == nil) {
			t.Fatalf("%q: parser error %v, encoding/json error %v", body, perr, werr)
		}
		if werr != nil {
			return
		}
		if string(sc.name) != want.Model {
			t.Fatalf("%q: model %q, encoding/json says %q", body, sc.name, want.Model)
		}
		wqs := make([]wireQuery, len(want.Observations))
		for i, o := range want.Observations {
			wqs[i] = o.wireQuery
		}
		checkQueries(t, body, sc, wqs)
		for i, o := range want.Observations {
			got := sc.sels[i]
			if o.Sel == nil && !math.IsNaN(got) || o.Sel != nil && math.Float64bits(got) != math.Float64bits(*o.Sel) {
				t.Fatalf("%q observation %d: sel %v, encoding/json says %v", body, i, got, o.Sel)
			}
		}
	})
}

// FuzzStreamLines: the stream answers exactly one line per non-blank
// input line, and each answer is the single-query answer for that line's
// object: the same estimate bits, or an error where /v1/estimate refuses
// {"query":LINE}. A line that is not one JSON value is an error line.
func FuzzStreamLines(f *testing.F) {
	for _, s := range []string{
		"{\"lo\":[0.1,0.2],\"hi\":[0.5,0.6]}\n{\"lo\":[0],\"hi\":[1]}\n",
		"{\"lo\":[0.25,0.25],\"hi\":[0.75,0.75]}\n\n   \n{\"a\":[1,1],\"b\":0.5}",
		"{\"center\":[0.5,0.5],\"radius\":0.3}\r\n{\"lo\":[0.1],\"hi\":[0.2]}\n",
		"{\"lo\":[0.1,0.2],\"hi\":[0.5,0.6]} trailing\n{\"lo\":[0.1,0.2],\"hi\":[0.5,0.6]},\"model\":\"x\"\n",
		"null\n{}\n[]\n{\"lo\":[0.1,0.2],\"lo\":null,\"a\":[1,1],\"b\":0.5}\n",
		"{\"lo\":[1e400,0],\"hi\":[1,1]}\n{\"lo\":[-0,0],\"hi\":[9007199254740993e-16,1]}\n",
		"{\"LO\":[0,0],\"hi\":[1,1]}\n{\"lo\":[0,0],\"hi\":[1,1],\"sel\":0.5}\n",
	} {
		f.Add([]byte(s))
	}
	s := NewServer(Options{})
	s.Registry().Set(DefaultModelName, "test", unitModel(1))
	h := s.Handler()
	answer := func(path string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		return w
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 1<<12 {
			return // lines stay far below the stream's line cap
		}
		var lines [][]byte
		for _, line := range bytes.SplitAfter(body, []byte("\n")) {
			if len(bytes.Trim(line, " \t\r\n")) > 0 {
				lines = append(lines, line)
			}
		}
		w := answer("/v1/estimate/stream", body)
		if w.Code != http.StatusOK {
			t.Fatalf("%q: stream HTTP %d", body, w.Code)
		}
		got := bytes.SplitAfter(w.Body.Bytes(), []byte("\n"))
		if n := len(got) - 1; n != len(lines) || len(got[n]) != 0 {
			t.Fatalf("%q: %d answer lines for %d query lines: %q", body, n, len(lines), w.Body.String())
		}
		for i, line := range lines {
			var rec struct {
				Estimate *float64
				Error    string
			}
			if err := json.Unmarshal(got[i], &rec); err != nil {
				t.Fatalf("%q: answer %q: %v", body, got[i], err)
			}
			single := -1 // status of /v1/estimate for {"query":LINE}; -1: not one JSON value
			var est float64
			if json.Valid(line) {
				sw := answer("/v1/estimate", append(append([]byte(`{"query":`), line...), '}'))
				single = sw.Code
				if single == http.StatusOK {
					var resp estimateResponse
					if err := json.Unmarshal(sw.Body.Bytes(), &resp); err != nil || resp.Estimate == nil {
						t.Fatalf("%q: single answer %q: %v", line, sw.Body.String(), err)
					}
					est = *resp.Estimate
				}
			}
			if single != http.StatusOK {
				if rec.Estimate != nil || !strings.HasPrefix(rec.Error, "query "+strconv.Itoa(i)+": ") {
					t.Fatalf("%q: line %d answered %q, want an error (single HTTP %d)", body, i, got[i], single)
				}
				continue
			}
			if rec.Estimate == nil || math.Float64bits(*rec.Estimate) != math.Float64bits(est) {
				t.Fatalf("%q: line %d answered %q, single answer %v", body, i, got[i], est)
			}
		}
	})
}

// numberSeeds are number tokens around every conversion boundary.
var numberSeeds = []string{
	"0", "-0", "-0.0", "0.0e-5", "1", "-1", "0.1", "0.5", "1e5", "1E+5", "2.5e-3",
	"9007199254740992", "9007199254740993", "9007199254740993e-5", "18014398509481985",
	"1e22", "1e23", "1e-22", "1e-23", "4.35e22", "9999999999999999999e22",
	"1234567890123456789", "12345678901234567890", "0.1234567890123456789", "0.12345678901234567890",
	"1234567890123456789e-22", "9999999999999999999e-22", "1000000000000000000000",
	"0.000000000000000000001", "0.0000123", "0.00000000000000000000000000000000000001",
	"0.12345678901234568", "0.5387467238431342", "1.2345678901234567e-05",
	"1e-400", "1e400", "-1e400", "5e-324", "4.9e-324", "2.2250738585072011e-308",
	"1.7976931348623157e308", "1.7976931348623159e308",
	"+1", ".5", "1.", "01", "-01", "1.e2", "1e", "1e+", "--1", "-", "", " 1 ", "1 x", "null", "1e99999999999999999999",
}

// FuzzWireNumber: a token is accepted exactly when encoding/json accepts
// it as a float64, and the result has strconv.ParseFloat's bits.
func FuzzWireNumber(f *testing.F) {
	for _, s := range numberSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		var want *float64
		werr := json.Unmarshal([]byte(tok), &want)
		accepted := werr == nil && want != nil // null is not a number
		p := wireParser{b: []byte(tok)}
		got, perr := p.parseFloat()
		if p.ws(); perr == nil && p.i < len(p.b) {
			perr = errors.New("trailing bytes")
		}
		if (perr == nil) != accepted {
			t.Fatalf("%q: parser error %v, encoding/json error %v", tok, perr, werr)
		}
		if !accepted {
			return
		}
		ref, err := strconv.ParseFloat(strings.Trim(tok, " \t\r\n"), 64)
		if err != nil || math.Float64bits(got) != math.Float64bits(ref) || math.Float64bits(got) != math.Float64bits(*want) {
			t.Fatalf("%q: parsed %v (bits %x), strconv says %v (bits %x, %v)", tok, got, math.Float64bits(got), ref, math.Float64bits(ref), err)
		}
	})
}
