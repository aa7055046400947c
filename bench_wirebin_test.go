package selest

// Binary wire protocol benchmarks (DESIGN.md §15): single-estimate and
// batched round trips over real TCP, with hand-rolled persistent HTTP/1.1
// arms measured in the same run as the fairness baseline. net/http's
// client allocates per response, which would charge the HTTP rows for
// client-side costs the comparison is not about, so both arms use raw
// sockets and preformatted request bytes. BenchmarkSnapshotLoad compares
// cold model load + Accelerate for the JSON and binary snapshot formats.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/modelio"
	"repro/internal/serve"
	"repro/internal/wirebin"
)

// benchServer starts one Server with both the HTTP handler and the
// binary listener on ephemeral ports, serving a 4096-bucket model with
// the estimate cache disabled.
func benchServer(b *testing.B) (httpAddr, binAddr string) {
	b.Helper()
	model := estPathModel(4096)
	core.Accelerate(model)
	s := serve.NewServer(serve.Options{EstimateCacheSize: -1})
	s.Registry().Set(serve.DefaultModelName, "bench", model)

	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hsrv := &http.Server{Handler: s.Handler()}
	go hsrv.Serve(hln)
	b.Cleanup(func() { hsrv.Close() })

	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = s.ServeBin(ctx, bln) }()
	b.Cleanup(func() { cancel(); <-done })

	return hln.Addr().String(), bln.Addr().String()
}

// httpConn is a persistent HTTP/1.1 connection that replays one
// preformatted request per round trip and drains Content-Length-framed
// responses, so the measured cost is the server and the wire, not a
// client library.
type httpConn struct {
	conn net.Conn
	br   *bufio.Reader
	req  []byte
}

func dialHTTP(b *testing.B, addr, path, body string) *httpConn {
	b.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { conn.Close() })
	req := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		path, addr, len(body), body)
	return &httpConn{conn: conn, br: bufio.NewReaderSize(conn, 1<<16), req: []byte(req)}
}

func (h *httpConn) roundTrip() error { return h.roundTripReq(h.req) }

func (h *httpConn) roundTripReq(req []byte) error {
	if _, err := h.conn.Write(req); err != nil {
		return err
	}
	status, err := h.br.ReadString('\n')
	if err != nil {
		return err
	}
	if !strings.Contains(status, " 200 ") {
		return fmt.Errorf("response status %q", strings.TrimSpace(status))
	}
	clen, chunked := -1, false
	for {
		line, err := h.br.ReadString('\n')
		if err != nil {
			return err
		}
		if line == "\r\n" {
			break
		}
		if v, ok := strings.CutPrefix(line, "Content-Length: "); ok {
			if _, err := fmt.Sscanf(v, "%d", &clen); err != nil {
				return err
			}
		}
		if strings.HasPrefix(line, "Transfer-Encoding: chunked") {
			chunked = true
		}
	}
	if chunked {
		for {
			line, err := h.br.ReadString('\n')
			if err != nil {
				return err
			}
			var size int
			if _, err := fmt.Sscanf(strings.TrimSpace(line), "%x", &size); err != nil {
				return fmt.Errorf("bad chunk size %q", strings.TrimSpace(line))
			}
			if _, err := h.br.Discard(size + 2); err != nil { // chunk + CRLF
				return err
			}
			if size == 0 {
				return nil
			}
		}
	}
	if clen < 0 {
		return fmt.Errorf("response without Content-Length")
	}
	if _, err := h.br.Discard(clen); err != nil {
		return err
	}
	return nil
}

// BenchmarkServeBin measures full round trips over loopback TCP: the
// binary protocol against persistent-connection HTTP/1.1 on the same
// server in the same run. scripts/bench.sh records the binary rows
// with the matching http rows as intra-run baselines.
func BenchmarkServeBin(b *testing.B) {
	httpAddr, binAddr := benchServer(b)

	queries := estPathQueries(256)
	ranges := make([]geom.Range, len(queries))
	for i, bq := range queries {
		ranges[i] = bq
	}
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i, bq := range queries {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"lo":[%g,%g],"hi":[%g,%g]}`, bq.Lo[0], bq.Lo[1], bq.Hi[0], bq.Hi[1])
	}
	sb.WriteString(`]}`)
	batchBody := sb.String()

	// The single arms cycle the same 256-query workload mix as the
	// batch arms and BenchmarkEstimatePath, so per-op cost reflects the
	// workload's estimate distribution rather than one fixed box.
	b.Run("single", func(b *testing.B) {
		c, err := wirebin.Dial(binAddr)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		if _, _, err := c.Estimate("", ranges[0]); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.Estimate("", ranges[i%len(ranges)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("http_single", func(b *testing.B) {
		singleReqs := make([][]byte, len(queries))
		for i, bq := range queries {
			body := fmt.Sprintf(`{"query":{"lo":[%g,%g],"hi":[%g,%g]}}`, bq.Lo[0], bq.Lo[1], bq.Hi[0], bq.Hi[1])
			singleReqs[i] = []byte(fmt.Sprintf("POST /v1/estimate HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
				httpAddr, len(body), body))
		}
		h := dialHTTP(b, httpAddr, "/v1/estimate", `{"query":{"lo":[0.2,0.3],"hi":[0.6,0.7]}}`)
		if err := h.roundTrip(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := h.roundTripReq(singleReqs[i%len(singleReqs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		c, err := wirebin.Dial(binAddr)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		var ests []float64
		if ests, _, err = c.EstimateBatch("", ranges, ests); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ests, _, err = c.EstimateBatch("", ranges, ests); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*float64(len(ranges))/b.Elapsed().Seconds(), "queries/s")
	})
	b.Run("http_batch", func(b *testing.B) {
		h := dialHTTP(b, httpAddr, "/v1/estimate", batchBody)
		if err := h.roundTrip(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := h.roundTrip(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)*float64(len(queries))/b.Elapsed().Seconds(), "queries/s")
	})
}

// BenchmarkSnapshotLoad measures cold-start model load from in-memory
// snapshot bytes through core.Accelerate, ready to serve. The binary
// format carries the BVH's leaf order, so its load derives the tree
// without the bucket sort and its Accelerate is a no-op; the JSON row
// pays a full parse plus an index build, sort included.
func BenchmarkSnapshotLoad(b *testing.B) {
	const m = 16384
	model := estPathModel(m)
	core.Accelerate(model)

	var jbuf bytes.Buffer
	if err := modelio.Save(&jbuf, model); err != nil {
		b.Fatal(err)
	}
	var bbuf bytes.Buffer
	if err := modelio.SaveBinary(&bbuf, model); err != nil {
		b.Fatal(err)
	}

	for _, row := range []struct {
		name string
		data []byte
	}{
		{fmt.Sprintf("json_m%d", m), jbuf.Bytes()},
		{fmt.Sprintf("binary_m%d", m), bbuf.Bytes()},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.SetBytes(int64(len(row.data)))
			for i := 0; i < b.N; i++ {
				lm, err := modelio.LoadAnyBytes(row.data)
				if err != nil {
					b.Fatal(err)
				}
				core.Accelerate(lm)
			}
		})
	}
}
