package serve

// Binary protocol listener (DESIGN.md §15): the estimate/feedback surface
// of the HTTP handlers over the wirebin framing protocol on persistent TCP
// connections. Each connection gets one goroutine, one wirebin.Arena and
// one pooled estimateScratch; frames are processed serially in arrival
// order, which makes pipelining's in-order responses free. Frames go
// through the same estimate core as JSON (estimate.go), so the two
// protocols return bit-identical estimates and the same faults.
//
// processBinFrame is the steady-state unit and allocates nothing
// (//selvet:zeroalloc, TestBinFrameZeroAlloc). A per-frame error (bad
// frame, bad query, unknown model, oversized frame) is answered with a
// FrameError and the connection stays open: the framing is still intact,
// so there is no reason to make the client pay a reconnect. Only
// transport failures and corrupt framing close it.

import (
	"bufio"
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/wirebin"
)

// binStats holds the binary listener's metric handles. They are
// registered unconditionally in NewServer so scrapes see stable series
// whether or not -listen-bin is enabled.
type binStats struct {
	connsTotal *obs.Counter
	active     atomic.Int64
	frameEst   *obs.Counter
	frameBatch *obs.Counter
	frameFb    *obs.Counter
	frameOther *obs.Counter
	errFrames  *obs.Counter
	frameSecs  *obs.Histogram
}

func (s *Server) registerBinMetrics(reg *obs.Registry) {
	s.bin.connsTotal = reg.Counter("selserve_bin_connections_total",
		"Binary-protocol connections accepted.")
	reg.GaugeFunc("selserve_bin_connections_active",
		"Binary-protocol connections currently open.",
		func() float64 { return float64(s.bin.active.Load()) })
	const frameHelp = "Binary-protocol frames processed, by request type."
	s.bin.frameEst = reg.Counter("selserve_bin_frames_total", frameHelp,
		obs.Label{Key: "type", Value: "estimate"})
	s.bin.frameBatch = reg.Counter("selserve_bin_frames_total", frameHelp,
		obs.Label{Key: "type", Value: "estimate_batch"})
	s.bin.frameFb = reg.Counter("selserve_bin_frames_total", frameHelp,
		obs.Label{Key: "type", Value: "feedback"})
	s.bin.frameOther = reg.Counter("selserve_bin_frames_total", frameHelp,
		obs.Label{Key: "type", Value: "unknown"})
	s.bin.errFrames = reg.Counter("selserve_bin_error_frames_total",
		"Binary-protocol frames answered with an error frame.")
	s.bin.frameSecs = reg.Histogram("selserve_bin_frame_seconds",
		"Binary-protocol per-frame service time in seconds.", nil)
}

// binState is one connection's reusable workspace: the decode arena, the
// estimate scratch (shared with the HTTP path's pool), and the frame
// read/write buffers. Pooled so short-lived connections do not pay a
// fresh set of warm buffers.
type binState struct {
	arena wirebin.Arena
	req   wirebin.Request
	sc    *estimateScratch
	frame []byte // incoming frame buffer (header + payload)
	out   []byte // outgoing response frame bytes
}

var binStatePool = sync.Pool{New: func() any { return new(binState) }}

// trim drops the oversized frame and arena buffers before st goes back
// to binStatePool, and the last request, which aliases the arena.
//
//selvet:zeroalloc
func (st *binState) trim() {
	dropOversized(&st.frame)
	dropOversized(&st.out)
	st.arena.Trim(maxPooledBytes)
	st.req = wirebin.Request{}
}

// processBinFrame serves one request frame, appending exactly one
// response frame to st.out. It never fails: every error becomes a
// FrameError response. Decode faults keep the codec's own messages; the
// estimate core's faults carry the same message as on the JSON path. The
// estimate path performs zero heap allocations at steady state; feedback
// frames deep-copy observations out of the arena (the feedback ring
// retains them), matching the JSON path's cost.
//
//selvet:zeroalloc
func (s *Server) processBinFrame(st *binState, typ byte, payload []byte) {
	switch typ {
	case wirebin.FrameEstimate:
		s.bin.frameEst.Inc()
	case wirebin.FrameEstimateBatch:
		s.bin.frameBatch.Inc()
	case wirebin.FrameFeedback:
		s.bin.frameFb.Inc()
	default:
		s.bin.frameOther.Inc()
		s.binFault(st, wirebin.CodeBadFrame, wirebin.ErrUnknownFrame.Error())
		return
	}
	if err := wirebin.DecodeRequest(typ, payload, &st.arena, &st.req); err != nil {
		code := byte(wirebin.CodeBadFrame)
		if errors.Is(err, wirebin.ErrBadQuery) {
			code = wirebin.CodeBadQuery
		}
		s.binFault(st, code, err.Error())
		return
	}
	ranges := st.req.Ranges
	if typ == wirebin.FrameFeedback {
		// The feedback ring retains observations beyond the frame, so
		// they must leave the arena; feedback frames are off the
		// estimate fast path and may allocate.
		batch := make([]core.LabeledQuery, len(ranges))
		for i, q := range ranges {
			batch[i] = core.LabeledQuery{R: cloneRange(q), Sel: st.req.Sels[i]}
		}
		entry, dropped, code := s.acceptFeedback(st.sc, st.req.Model, batch)
		if code != 0 {
			s.binFault(st, code, bstr(st.sc.out))
			return
		}
		st.out = wirebin.AppendFeedbackResp(st.out, entry.Generation, len(batch), dropped)
		return
	}
	errs := grow(&st.sc.qerrs, len(ranges))
	clear(errs)
	entry, code := s.admit(st.sc, st.req.Model, ranges, errs)
	if code != 0 {
		s.binFault(st, code, bstr(st.sc.out))
		return
	}
	ests := s.estimate(entry, ranges, errs, st.sc, obs.Span{})
	if typ == wirebin.FrameEstimate {
		st.out = wirebin.AppendEstimateResp(st.out, entry.Generation, ests[0])
	} else {
		st.out = wirebin.AppendEstimateBatchResp(st.out, entry.Generation, ests)
	}
}

// binFault appends one error frame to st.out.
//
//selvet:zeroalloc
func (s *Server) binFault(st *binState, code byte, msg string) {
	s.bin.errFrames.Inc()
	st.out = wirebin.AppendErrorResp(st.out, code, msg)
}

// cloneRange deep-copies an arena-backed range so it can outlive the
// frame that carried it.
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

// serveBinConn runs one connection's frame loop: read, process, buffer
// the response, and flush only when the read side has drained — so a
// pipelined burst pays one writev, while a lone request is answered
// immediately before the loop blocks on the next read.
func (s *Server) serveBinConn(conn net.Conn) {
	defer func() { _ = conn.Close() }() // double-close on drain is harmless

	st := binStatePool.Get().(*binState)
	defer binStatePool.Put(st)
	defer st.trim()
	st.sc = scratchPool.Get().(*estimateScratch)
	// LIFO defers: the scratch is trimmed, returned and unhooked from st
	// before st itself is trimmed and goes back to its pool.
	defer func() {
		st.sc.trim()
		scratchPool.Put(st.sc)
		st.sc = nil
	}()

	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	for {
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				s.encodeFailed("bin flush", err)
				return
			}
		}
		typ, payload, err := wirebin.ReadFrame(br, &st.frame)
		if err != nil {
			switch {
			case err == io.EOF:
				return
			case errors.Is(err, wirebin.ErrFrameTooLarge):
				// Framing is intact (ReadFrame discarded the payload):
				// answer and keep serving.
				st.out = st.out[:0]
				s.binFault(st, wirebin.CodeTooLarge, "frame exceeds size limit")
			default:
				// Framing corrupt or the peer vanished mid-frame: a
				// best-effort error frame, then close.
				st.out = st.out[:0]
				s.binFault(st, wirebin.CodeBadFrame, err.Error())
				if _, werr := bw.Write(st.out); werr == nil {
					if ferr := bw.Flush(); ferr != nil {
						s.encodeFailed("bin flush", ferr)
					}
				} else {
					s.encodeFailed("bin write", werr)
				}
				return
			}
		} else {
			start := time.Now()
			st.out = st.out[:0]
			s.processBinFrame(st, typ, payload)
			s.bin.frameSecs.Observe(time.Since(start).Seconds())
		}
		if _, err := bw.Write(st.out); err != nil {
			s.encodeFailed("bin write", err)
			return
		}
	}
}

// ServeBin serves the binary protocol on ln until ctx is cancelled. It is
// the binary counterpart of Serve and runs beside it; it does not start a
// second retrainer (model lifecycle stays with the HTTP Serve loop). On
// cancellation it stops accepting, then gives in-flight connections
// DrainTimeout to finish their current frames before force-closing them.
func (s *Server) ServeBin(ctx context.Context, ln net.Listener) error {
	var mu sync.Mutex
	conns := make(map[net.Conn]struct{})
	go func() {
		<-ctx.Done()
		_ = ln.Close() // unblocks Accept
	}()

	var wg sync.WaitGroup
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			return err
		}
		s.bin.connsTotal.Inc()
		s.bin.active.Add(1)
		mu.Lock()
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveBinConn(conn)
			mu.Lock()
			delete(conns, conn)
			mu.Unlock()
			s.bin.active.Add(-1)
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(s.opts.DrainTimeout):
		// Collect under the lock, close outside it: Close can block on
		// the network and must not hold the connection-set mutex.
		mu.Lock()
		open := make([]net.Conn, 0, len(conns))
		for c := range conns {
			open = append(open, c)
		}
		mu.Unlock()
		for _, c := range open {
			_ = c.Close()
		}
		<-done
		if s.logger != nil {
			s.logger.LogAttrs(context.Background(), slog.LevelWarn,
				"binary drain timeout: connections force-closed",
				slog.Int("connections", len(open)))
		}
	}
	return nil
}
