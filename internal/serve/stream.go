package serve

import (
	"bufio"
	"errors"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"repro/internal/obs"
)

// The NDJSON streaming endpoint: POST /v1/estimate/stream?model=NAME.
//
// Bulk consumers (a planner warming its plan cache, a benchmark, a
// backfill) amortize the HTTP envelope over one connection: the client
// writes one wire-query object per line, the server answers every
// streamBatchSize lines through the estimate core and writes one
// {"estimate":x} line per query, in request order, flushing after every
// batch. A malformed line takes its slot in the batch like any other and
// is answered in place with an {"error":"query N: ..."} line, so clients
// correlate answers with requests by line count.
//
// The model is resolved once per connection and X-Model-Generation echoes
// the generation that answers the whole stream, so a long stream stays
// deterministic while hot swaps land.

// streamBatchSize bounds how many lines accumulate before the batch is
// answered. Large enough to amortize flushes; small enough that the first
// results of a long stream appear quickly.
const streamBatchSize = 256

// streamMaxLine bounds one NDJSON line (a single query object).
const streamMaxLine = 64 << 10

var errLineTooLong = errors.New("line exceeds 64KiB")

var streamReaderPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, streamMaxLine) }}
var streamWriterPool = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

func (s *Server) handleEstimateStream(w http.ResponseWriter, r *http.Request) {
	sc := scratchPool.Get().(*estimateScratch)
	defer scratchPool.Put(sc)
	defer sc.trim()
	sc.resetWire()
	sc.name = append(sc.name, queryParam(r.URL.RawQuery, "model")...)
	entry, code := s.admit(sc, sc.name, nil, nil)
	if code != 0 {
		s.writeFault(w, code, sc.out)
		return
	}
	sp := obs.SpanFromContext(r.Context())

	// The handler interleaves request-body reads with response writes. Go's
	// HTTP/1 server is half-duplex by default: once the response starts, it
	// may stop delivering the rest of the body, which truncates long streams
	// whose upload is still in flight when the first batch flushes. Full
	// duplex opts out of that; writers that don't support it (HTTP/2 is
	// always full-duplex) return an error we can ignore.
	_ = http.NewResponseController(w).EnableFullDuplex()

	br := streamReaderPool.Get().(*bufio.Reader)
	br.Reset(r.Body)
	defer streamReaderPool.Put(br)
	bw := streamWriterPool.Get().(*bufio.Writer)
	bw.Reset(w)
	defer streamWriterPool.Put(bw)

	h := w.Header()
	h["Content-Type"] = ndjsonContentType
	h["X-Model-Generation"] = entry.genHeader
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// flush answers the batched lines in order — the core checks and
	// estimates the batch, and each slot becomes an estimate line or an
	// error line — then pushes them to the client. Only a mid-stream flush
	// flushes the HTTP response: a stream that ends within its first batch
	// then goes out in one write with a Content-Length, not chunked.
	// Returning false means the client is gone and the stream ends.
	first := 0 // stream index of the batch's first line
	flush := func(mid bool) bool {
		if len(sc.ranges) == 0 {
			return true
		}
		entry.check(sc.ranges, sc.qerrs)
		ests := s.estimate(entry, sc.ranges, sc.qerrs, sc, sp)
		out := appendStreamLines(sc.out[:0], sc, ests, first, entry)
		sc.out = out
		first += len(sc.ranges)
		sc.resetWire()
		if _, err := bw.Write(out); err != nil {
			s.encodeFailed("stream write", err)
			return false
		}
		if err := bw.Flush(); err != nil {
			s.encodeFailed("stream flush", err)
			return false
		}
		if mid && flusher != nil {
			flusher.Flush()
		}
		return true
	}

	var qp queryParts
	for {
		line, err := br.ReadSlice('\n')
		p := wireParser{b: line, sc: sc}
		if p.ws(); err == bufio.ErrBufferFull {
			// Skip the oversized line's remainder; it answers in its slot.
			for err == bufio.ErrBufferFull {
				_, err = br.ReadSlice('\n')
			}
			sc.ranges = append(sc.ranges, nil)
			sc.qerrs = append(sc.qerrs, errLineTooLong)
		} else if p.i < len(line) { // blank lines are skipped
			// A final unterminated line is parsed too, then the loop ends.
			if perr := p.parseLine(&qp); perr != nil {
				sc.ranges = append(sc.ranges, nil)
				sc.qerrs = append(sc.qerrs, perr)
			}
		}
		if err != nil {
			break
		}
		if len(sc.ranges) >= streamBatchSize && !flush(true) {
			return
		}
	}
	flush(false)
}

// appendStreamLines renders one answer line per slot of a checked and
// estimated batch whose first line is line first of the stream: the
// estimate, or the slot's fault as in "query N: …".
//
//selvet:zeroalloc
func appendStreamLines(out []byte, sc *estimateScratch, ests []float64, first int, e *Entry) []byte {
	for i, err := range sc.qerrs {
		if err != nil {
			msg := appendFault(sc.strbuf[:0], "query", first+i, err, sc.ranges[i], e)
			sc.strbuf = msg[:0]
			out = append(out, `{"error":`...)
			out = appendJSONString(out, msg)
		} else {
			out = append(out, `{"estimate":`...)
			out = appendJSONFloat(out, ests[i])
		}
		out = append(out, '}', '\n')
	}
	return out
}

// queryParam returns the first value of key in the raw URL query as
// url.ParseQuery decodes it (a pair holding ';' or a bad escape is
// skipped), without building the map r.URL.Query() allocates.
// url.QueryUnescape returns its argument when there is nothing to
// decode, so only a '+' or %XX escape costs an allocation.
func queryParam(rawQuery, key string) string {
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}
