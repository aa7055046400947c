package serve

import (
	"errors"
	"strconv"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/wirebin"
)

// The estimate core (DESIGN.md §7). The JSON, NDJSON and binary transports
// only decode, call the functions here, and encode: model lookup, the
// dimension check and the kernel call live nowhere else. The core's
// two faults are classed by wirebin code so every transport maps them
// alike: CodeUnknownModel (HTTP 404) and CodeBadQuery (HTTP 400, or an
// error line on the stream). Decode faults stay with each codec.

// errDimension marks, in a per-query error slot, a query whose dimension
// is not the model's; appendFault spells out both dimensions.
var errDimension = errors.New("query dimension does not match the model")

// modelName is the one defaulting rule: no name means DefaultModelName.
//
//selvet:zeroalloc
func modelName(name []byte) []byte {
	if len(name) == 0 {
		return defaultModelBytes
	}
	return name
}

// fits reports whether q has the entry's dimension; a model that does not
// reveal its dimension takes any query.
//
//selvet:zeroalloc
func (e *Entry) fits(q geom.Range) bool {
	return e.dim == 0 || q.Dim() == e.dim
}

// check marks errDimension in errs for every decoded query that does not
// fit the entry and returns how many queries are faulty.
//
//selvet:zeroalloc
func (e *Entry) check(ranges []geom.Range, errs []error) (bad int) {
	for i, q := range ranges {
		if errs[i] == nil && !e.fits(q) {
			errs[i] = errDimension
		}
		if errs[i] != nil {
			bad++
		}
	}
	return bad
}

// admit resolves name and checks ranges, errs carrying the codec's decode
// faults in and the dimension faults out. On a fault it returns the
// fault's code with its message rendered into sc.out; otherwise code 0.
//
//selvet:zeroalloc
func (s *Server) admit(sc *estimateScratch, name []byte, ranges []geom.Range, errs []error) (*Entry, byte) {
	e, ok := s.registry.GetBytes(modelName(name))
	if !ok {
		sc.out = appendUnknownModel(sc.out[:0], name)
		return nil, wirebin.CodeUnknownModel
	}
	if bad := e.check(ranges, errs); bad > 0 {
		sc.out = appendFaults(sc.out[:0], e, ranges, errs, bad)
		return e, wirebin.CodeBadQuery
	}
	return e, 0
}

// estimate returns an estimate for every query whose errs slot is nil.
// The valid queries go to the shared kernel as one batch, evaluated on the
// request's goroutine, and their results are scattered back by index.
// When sp is an active trace span, the kernel call appears as its child.
//
//selvet:zeroalloc
func (s *Server) estimate(e *Entry, ranges []geom.Range, errs []error, sc *estimateScratch, sp obs.Span) []float64 {
	ests := grow(&sc.ests, len(ranges))
	valid, validRg := sc.valid[:0], sc.validRg[:0]
	for i, q := range ranges {
		if errs[i] == nil {
			valid = append(valid, i)
			validRg = append(validRg, q)
		}
	}
	sc.valid, sc.validRg = valid, validRg
	validV := grow(&sc.validV, len(valid))
	if len(valid) > 0 {
		core.EstimateRangesTraced(e.Model, validRg, validV, sp)
	}
	for k, i := range valid {
		ests[i] = validV[k]
	}
	return ests
}

// acceptFeedback is the one accept path for JSON and binary feedback:
// admit the model, check every observation, copy the batch out of the
// request's arenas, buffer it in the model's ring and fold it into the
// online updater. A refused batch buffers nothing and reports its fault
// as admit does.
func (s *Server) acceptFeedback(sc *estimateScratch, name []byte, ranges []geom.Range, sels []float64) (e *Entry, dropped int, code byte) {
	if e, code = s.admit(sc, name, nil, nil); code != 0 {
		return e, 0, code
	}
	for i, q := range ranges {
		if !e.fits(q) {
			sc.out = appendFault(sc.out[:0], "observation", i, errDimension, q, e)
			return e, 0, wirebin.CodeBadQuery
		}
	}
	batch := cloneBatch(ranges, sels)
	dropped = s.feedback.Add(e.name, batch)
	if s.online != nil {
		// The ring keeps its copy regardless: structural refreshes still
		// come from the background retrainer.
		s.online.ingest(e.name, batch)
	}
	return e, dropped, 0
}

// cloneBatch copies decoded feedback observations out of the request's
// arenas into labeled queries: the feedback ring and the online updater
// keep them past the request.
func cloneBatch(ranges []geom.Range, sels []float64) []core.LabeledQuery {
	batch := make([]core.LabeledQuery, len(ranges))
	for i, q := range ranges {
		batch[i] = core.LabeledQuery{R: cloneRange(q), Sel: sels[i]}
	}
	return batch
}

// cloneRange deep-copies an arena-backed range so it can outlive the
// request that carried it.
func cloneRange(r geom.Range) geom.Range {
	clone := func(p geom.Point) geom.Point { return append(geom.Point(nil), p...) }
	switch q := r.(type) {
	case *geom.Box:
		return geom.NewBox(clone(q.Lo), clone(q.Hi))
	case *geom.Halfspace:
		return geom.NewHalfspace(clone(q.A), q.B)
	case *geom.Ball:
		return geom.NewBall(clone(q.Center), q.Radius)
	}
	return r
}

//selvet:zeroalloc
func appendUnknownModel(dst, name []byte) []byte {
	dst = append(dst, "model "...)
	dst = strconv.AppendQuote(dst, bstr(modelName(name)))
	return append(dst, " not registered"...)
}

// appendFault renders the fault err of the i-th query q ("query 3: …").
//
//selvet:zeroalloc
func appendFault(dst []byte, noun string, i int, err error, q geom.Range, e *Entry) []byte {
	dst = append(dst, noun...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(i), 10)
	dst = append(dst, ": "...)
	if err != errDimension {
		return append(dst, err.Error()...)
	}
	dst = append(dst, "dimension "...)
	dst = strconv.AppendInt(dst, int64(q.Dim()), 10)
	dst = append(dst, ", model "...)
	dst = strconv.AppendQuote(dst, e.name)
	dst = append(dst, " has dimension "...)
	return strconv.AppendInt(dst, int64(e.dim), 10)
}

// appendFaults names every faulty query so a client can fix the whole
// batch in one round trip: "2 of 5 queries invalid: query 1: …; query 3: …".
//
//selvet:zeroalloc
func appendFaults(dst []byte, e *Entry, ranges []geom.Range, errs []error, bad int) []byte {
	dst = strconv.AppendInt(dst, int64(bad), 10)
	dst = append(dst, " of "...)
	dst = strconv.AppendInt(dst, int64(len(ranges)), 10)
	dst = append(dst, " queries invalid: "...)
	sep := ""
	for i, err := range errs {
		if err != nil {
			dst = append(dst, sep...)
			dst = appendFault(dst, "query", i, err, ranges[i], e)
			sep = "; "
		}
	}
	return dst
}
