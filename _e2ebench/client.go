package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/wirebin"
)

// lane is one caller: a persistent HTTP connection and a persistent binary
// connection, used one request at a time. The benchmark runs nproc lanes,
// so at most nproc requests are in flight.
type lane struct {
	httpAddr, binAddr string
	hc, bc            net.Conn
	hr, br            *bufio.Reader
	// lastGen is the newest model generation seen on each connection; a
	// response from an older generation is stale.
	lastGenHTTP, lastGenBin int64

	body  bytes.Buffer
	frame []byte
	resp  wirebin.Response
	ests  []float64
}

func dialLane(httpAddr, binAddr string) (*lane, error) {
	l := &lane{httpAddr: httpAddr, binAddr: binAddr}
	if err := l.redial(); err != nil {
		return nil, err
	}
	return l, nil
}

// redial (re)opens both connections; after a failed request the framing
// state of a connection is unknown, so it is replaced.
func (l *lane) redial() error {
	l.close()
	hc, err := net.DialTimeout("tcp", l.httpAddr, 5*time.Second)
	if err != nil {
		return err
	}
	bc, err := net.DialTimeout("tcp", l.binAddr, 5*time.Second)
	if err != nil {
		_ = hc.Close()
		return err
	}
	l.hc, l.bc = hc, bc
	l.hr, l.br = bufio.NewReaderSize(hc, 64<<10), bufio.NewReaderSize(bc, 64<<10)
	l.lastGenHTTP, l.lastGenBin = 0, 0
	return nil
}

func (l *lane) close() {
	if l.hc != nil {
		_ = l.hc.Close()
		_ = l.bc.Close()
		l.hc, l.bc = nil, nil
	}
}

// do sends one request and checks its response.
func (l *lane) do(req *request) error {
	deadline := time.Now().Add(10 * time.Second)
	if req.cls == clsBin {
		_ = l.bc.SetDeadline(deadline)
		return l.doBin(req)
	}
	_ = l.hc.SetDeadline(deadline)
	return l.doHTTP(req)
}

func (l *lane) doBin(req *request) error {
	if _, err := l.bc.Write(req.wire); err != nil {
		return err
	}
	typ, payload, err := wirebin.ReadFrame(l.br, &l.frame)
	if err != nil {
		return err
	}
	if err := wirebin.DecodeResponse(typ, payload, &l.resp); err != nil {
		return err
	}
	if l.resp.Type != wirebin.FrameEstimateResp {
		return fmt.Errorf("bin: response frame type %d (%s)", l.resp.Type, l.resp.Msg)
	}
	l.ests = append(l.ests[:0], l.resp.Est)
	return checkEstimates(req, l.resp.Generation, l.ests, &l.lastGenBin)
}

func (l *lane) doHTTP(req *request) error {
	if _, err := l.hc.Write(req.wire); err != nil {
		return err
	}
	resp, err := http.ReadResponse(l.hr, nil)
	if err != nil {
		return err
	}
	l.body.Reset()
	_, err = l.body.ReadFrom(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return err
	}
	body := l.body.Bytes()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", req.cls, resp.StatusCode, bytes.TrimSpace(body))
	}
	switch req.cls {
	case clsSingle, clsBatch:
		gen, ests, err := parseEstimateJSON(body, l.ests[:0])
		l.ests = ests
		if err != nil {
			return err
		}
		return checkEstimates(req, gen, ests, &l.lastGenHTTP)
	case clsStream:
		gen, err := strconv.ParseInt(resp.Header.Get("X-Model-Generation"), 10, 64)
		if err != nil {
			return fmt.Errorf("stream: bad X-Model-Generation: %w", err)
		}
		ests, err := parseStream(body, l.ests[:0])
		l.ests = ests
		if err != nil {
			return err
		}
		return checkEstimates(req, gen, ests, &l.lastGenHTTP)
	case clsFeedback:
		want := `"accepted":` + strconv.Itoa(feedbackObs) + `,`
		if !bytes.Contains(body, []byte(want)) {
			return fmt.Errorf("feedback: response %s lacks %s", bytes.TrimSpace(body), want)
		}
	case clsSwap:
		gen, ok := jsonInt(body, `"generation":`)
		if !ok {
			return fmt.Errorf("swap: no generation in %s", bytes.TrimSpace(body))
		}
		if gen < l.lastGenHTTP {
			return errStale
		}
		l.lastGenHTTP = gen
	}
	return nil
}

var (
	errCount = errors.New("estimate count does not match the request")
	errRange = errors.New("estimate outside [0,1]")
	errStale = errors.New("response generation older than one already seen on this connection")
)

// checkEstimates is the response checker shared by every transport: the
// right number of estimates, each a selectivity, from a generation no older
// than the connection's last, and — when the plan knows them — bit-identical
// to the in-process estimates of the served snapshot.
func checkEstimates(req *request, gen int64, ests []float64, lastGen *int64) error {
	if len(ests) != req.nq {
		return fmt.Errorf("%s: %w: got %d, want %d", req.cls, errCount, len(ests), req.nq)
	}
	for i, v := range ests {
		if !(v >= 0 && v <= 1) {
			return fmt.Errorf("%s: query %d: %w: %v", req.cls, i, errRange, v)
		}
		if req.want != nil && math.Float64bits(v) != math.Float64bits(req.want[i]) {
			return fmt.Errorf("%s: query %d: estimate %v differs from the in-process %v", req.cls, i, v, req.want[i])
		}
	}
	if gen < *lastGen {
		return fmt.Errorf("%s: %w (%d < %d)", req.cls, errStale, gen, *lastGen)
	}
	*lastGen = gen
	return nil
}

// parseEstimateJSON reads {"model":…,"generation":G,"estimate":x} or
// {…,"estimates":[x,…]}, appending the estimates to dst. strconv parsing
// of the server's shortest-round-trip floats is exact.
func parseEstimateJSON(body []byte, dst []float64) (int64, []float64, error) {
	gen, ok := jsonInt(body, `"generation":`)
	if !ok {
		return 0, dst, fmt.Errorf("estimate: no generation in %.200s", body)
	}
	if i := bytes.Index(body, []byte(`"estimate":`)); i >= 0 {
		v, _, err := parseFloatAt(body, i+len(`"estimate":`))
		if err != nil {
			return 0, dst, err
		}
		return gen, append(dst, v), nil
	}
	i := bytes.Index(body, []byte(`"estimates":[`))
	if i < 0 {
		return 0, dst, fmt.Errorf("estimate: no estimates in %.200s", body)
	}
	i += len(`"estimates":[`)
	for i < len(body) && body[i] != ']' {
		v, next, err := parseFloatAt(body, i)
		if err != nil {
			return 0, dst, err
		}
		dst = append(dst, v)
		i = next
		if i < len(body) && body[i] == ',' {
			i++
		}
	}
	return gen, dst, nil
}

// parseStream reads NDJSON {"estimate":x} lines; an error line fails the
// request.
func parseStream(body []byte, dst []float64) ([]float64, error) {
	const prefix = `{"estimate":`
	for len(body) > 0 {
		nl := bytes.IndexByte(body, '\n')
		if nl < 0 {
			nl = len(body)
		}
		line := body[:nl]
		body = body[min(nl+1, len(body)):]
		if len(line) == 0 {
			continue
		}
		if !bytes.HasPrefix(line, []byte(prefix)) {
			return dst, fmt.Errorf("stream: unexpected line %.200s", line)
		}
		v, _, err := parseFloatAt(line, len(prefix))
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// parseFloatAt parses the JSON number starting at b[i], returning it and
// the index just past it.
func parseFloatAt(b []byte, i int) (float64, int, error) {
	j := i
	for j < len(b) && (b[j] == '-' || b[j] == '+' || b[j] == '.' || b[j] == 'e' || b[j] == 'E' || (b[j] >= '0' && b[j] <= '9')) {
		j++
	}
	v, err := strconv.ParseFloat(string(b[i:j]), 64)
	if err != nil {
		return 0, j, fmt.Errorf("bad number %q: %w", b[i:j], err)
	}
	return v, j, nil
}

func jsonInt(b []byte, key string) (int64, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, false
	}
	i += len(key)
	j := i
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	v, err := strconv.ParseInt(string(b[i:j]), 10, 64)
	return v, err == nil
}
