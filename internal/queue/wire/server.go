package wire

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/queue"
	"repro/internal/telemetry"
)

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("wire: server closed")

// Server serves the wire protocol over a listener, dispatching every
// frame to a queue.API — a local Service or a shard router, the same
// backends HTTPHandler fronts. One Server may serve many listeners.
type Server struct {
	Service queue.API
	// AdminTokens provision the privileged transfer opcode with the
	// same semantics as HTTPHandler: requests carry one token, any
	// provisioned token is accepted (rotation), and no provisioned
	// tokens means every transfer is rejected.
	AdminTokens []string
	// Metrics, when set, registers wire_op_ns{op=...} latency
	// histograms, a wire_conns open-connection gauge, and a
	// wire_frames counter.
	Metrics *telemetry.Registry
	// MaxConcurrent caps the handler goroutines of one connection
	// (default 256). Handlers live as long as their connection and each
	// runs one request at a time; when all of them are busy the reader
	// stops reading frames, which pushes back on the client through the
	// transport instead of growing goroutines without bound.
	MaxConcurrent int

	initOnce sync.Once
	met      *serverMetrics

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[*srvConn]struct{}
	closed bool
}

type serverMetrics struct {
	ops    map[byte]*telemetry.Histogram
	conns  *telemetry.Gauge
	frames *telemetry.Counter
}

func (s *Server) init() {
	s.initOnce.Do(func() {
		s.lns = make(map[net.Listener]struct{})
		s.conns = make(map[*srvConn]struct{})
		if s.MaxConcurrent <= 0 {
			s.MaxConcurrent = 256
		}
		if s.Metrics != nil {
			m := &serverMetrics{
				ops:    make(map[byte]*telemetry.Histogram, len(opNames)),
				conns:  s.Metrics.Gauge("wire_conns"),
				frames: s.Metrics.Counter("wire_frames"),
			}
			for op, name := range opNames {
				m.ops[op] = s.Metrics.Histogram(telemetry.Label("wire_op_ns", "op", name))
			}
			s.met = m
		}
	})
}

// Serve accepts connections on ln until the listener fails or the
// server is closed. It blocks; run it in a goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.init()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.lns, ln)
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		c := &srvConn{
			srv:     s,
			nc:      nc,
			br:      bufio.NewReaderSize(nc, 64<<10),
			bw:      bufio.NewWriterSize(nc, 64<<10),
			writeCh: make(chan *[]byte, 64),
			done:    make(chan struct{}),
			work:    make(chan request),
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		if s.met != nil {
			s.met.conns.Add(1)
		}
		go c.serve()
	}
}

// Close stops every listener and tears down every open connection.
func (s *Server) Close() error {
	s.init()
	s.mu.Lock()
	s.closed = true
	lns := make([]net.Listener, 0, len(s.lns))
	for ln := range s.lns {
		lns = append(lns, ln)
	}
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.shutdown()
	}
	return nil
}

// srvConn is one accepted connection: a reader loop handing request
// frames to handler goroutines, and a writer goroutine serializing
// response frames with coalesced flushes.
//
// Handlers are kept for the life of the connection rather than started
// per frame. A request runs deep (router, shard, journal encoding), so
// a fresh goroutine would grow its stack from the minimum on every
// frame; a kept handler reuses the stack its earlier requests grew.
// The reader starts a handler only when no idle one takes the frame,
// so a connection has as many handlers as it ever had requests in
// flight, at most MaxConcurrent.
type srvConn struct {
	srv       *Server
	nc        net.Conn
	br        *bufio.Reader
	bw        *bufio.Writer
	writeCh   chan *[]byte
	done      chan struct{}
	closeOnce sync.Once
	// work passes a frame to an idle handler. It is unbuffered, so a
	// send succeeds only when a handler is ready to run the frame.
	work chan request
	// handlers counts the started handlers; only the reader touches it.
	handlers int
}

// request is one parsed frame and the pooled buffer its payload
// aliases.
type request struct {
	f   Frame
	buf *[]byte
}

func (c *srvConn) shutdown() {
	c.closeOnce.Do(func() {
		close(c.done)
		c.nc.Close()
	})
}

func (c *srvConn) serve() {
	defer func() {
		c.shutdown()
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
		if c.srv.met != nil {
			c.srv.met.conns.Add(-1)
		}
	}()
	go c.writer()
	for {
		bp, err := readFrameBody(c.br)
		if err != nil {
			return
		}
		f, err := parseBody(*bp)
		if err != nil {
			// Framing is broken; there is no way to answer (the
			// correlation id may not have decoded), so drop the conn
			// and let the client's reconnect discipline take over.
			putBuf(bp)
			return
		}
		if c.srv.met != nil {
			c.srv.met.frames.Inc()
		}
		req := request{f: f, buf: bp}
		select {
		case c.work <- req:
			continue
		default:
		}
		if c.handlers < c.srv.MaxConcurrent {
			c.handlers++
			go c.handler(req)
			continue
		}
		select {
		case c.work <- req:
		case <-c.done:
			putBuf(bp)
			return
		}
	}
}

// handler runs req, then every frame the reader hands it, until the
// connection shuts down.
func (c *srvConn) handler(req request) {
	for {
		c.handle(req.f, req.buf)
		select {
		case req = <-c.work:
		case <-c.done:
			return
		}
	}
}

// writer drains response frames, coalescing every frame already queued
// into one flush — under pipelining this batches many small responses
// per syscall.
func (c *srvConn) writer() {
	for {
		select {
		case bp := <-c.writeCh:
			err := writeFrame(c.bw, *bp)
			putBuf(bp)
			for err == nil {
				select {
				case bp := <-c.writeCh:
					err = writeFrame(c.bw, *bp)
					putBuf(bp)
					continue
				default:
				}
				break
			}
			if err == nil {
				err = c.bw.Flush()
			}
			if err != nil {
				c.shutdown()
				return
			}
		case <-c.done:
			return
		}
	}
}

// handle dispatches one request frame and queues its response. It owns
// reqBuf (the frame's backing buffer) until the service call returns —
// OpSend payloads alias it — and releases it before the response is
// encoded.
func (c *srvConn) handle(f Frame, reqBuf *[]byte) {
	svc := c.srv.Service
	if f.Trace != "" {
		if ts, ok := svc.(queue.TraceScoper); ok {
			svc = ts.WithTrace(f.Trace)
		}
	}
	var start time.Time
	if c.srv.met != nil {
		start = time.Now()
	}

	rp := getBuf()
	e := enc{b: (*rp)[:0]}
	e.byte(f.Op)
	e.u64(f.CorrID)
	e.str("") // queue: responses carry no routing fields
	e.str("") // trace
	c.dispatch(svc, f, &e)
	putBuf(reqBuf)
	*rp = e.b

	if c.srv.met != nil {
		c.srv.met.ops[f.Op].Observe(time.Since(start))
	}
	select {
	case c.writeCh <- rp:
	case <-c.done:
		putBuf(rp)
	}
}

// fail encodes an error response: status code + message.
func fail(e *enc, err error) {
	e.byte(statusFor(err))
	e.str(err.Error())
}

// ok encodes the success status; the caller appends the result payload.
func ok(e *enc) { e.byte(statusOK) }

// dispatch decodes the op-specific payload, invokes the service, and
// encodes the result.
func (c *srvConn) dispatch(svc queue.API, f Frame, e *enc) {
	d := dec{b: f.Payload}
	switch f.Op {
	case OpCreateQueue:
		if err := svc.CreateQueue(f.Queue); err != nil {
			fail(e, err)
			return
		}
		ok(e)
	case OpDeleteQueue:
		if err := svc.DeleteQueue(f.Queue); err != nil {
			fail(e, err)
			return
		}
		ok(e)
	case OpListQueues:
		names := svc.ListQueues()
		ok(e)
		appendStrings(e, names)
	case OpSend:
		id, err := svc.SendMessage(f.Queue, d.rest())
		if err != nil {
			fail(e, err)
			return
		}
		ok(e)
		e.str(id)
	case OpSendBatch:
		n := d.len()
		bodies := make([][]byte, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			bodies = append(bodies, d.bytes())
		}
		if d.err != nil {
			fail(e, ErrCorruptFrame)
			return
		}
		ids, err := svc.SendMessageBatch(f.Queue, bodies)
		if err != nil {
			fail(e, err)
			return
		}
		ok(e)
		appendStrings(e, ids)
	case OpReceive:
		visibility := time.Duration(d.i64())
		wait := time.Duration(d.i64())
		max := int(d.u64())
		if d.err != nil {
			fail(e, ErrCorruptFrame)
			return
		}
		msgs, err := svc.ReceiveMessageBatch(f.Queue, visibility, max, wait)
		if err != nil {
			fail(e, err)
			return
		}
		ok(e)
		appendMessages(e, msgs)
	case OpDelete:
		receipt := d.str()
		if d.err != nil {
			fail(e, ErrCorruptFrame)
			return
		}
		if err := svc.DeleteMessage(f.Queue, receipt); err != nil {
			fail(e, err)
			return
		}
		ok(e)
	case OpDeleteBatch:
		receipts := d.strs()
		if d.err != nil {
			fail(e, ErrCorruptFrame)
			return
		}
		results, err := svc.DeleteMessageBatch(f.Queue, receipts)
		if err != nil {
			fail(e, err)
			return
		}
		ok(e)
		e.u64(uint64(len(results)))
		for _, res := range results {
			if res == nil {
				e.byte(statusOK)
				continue
			}
			e.byte(statusFor(res))
			e.str(res.Error())
		}
	case OpChangeVisibility:
		receipt := d.str()
		dur := time.Duration(d.i64())
		if d.err != nil {
			fail(e, ErrCorruptFrame)
			return
		}
		if err := svc.ChangeVisibility(f.Queue, receipt, dur); err != nil {
			fail(e, err)
			return
		}
		ok(e)
	case OpCount:
		visible, inflight, err := svc.ApproximateCount(f.Queue)
		if err != nil {
			fail(e, err)
			return
		}
		ok(e)
		e.u64(uint64(visible))
		e.u64(uint64(inflight))
	case OpPurge:
		if err := svc.Purge(f.Queue); err != nil {
			fail(e, err)
			return
		}
		ok(e)
	case OpRequests:
		ok(e)
		e.u64(uint64(svc.APIRequests()))
	case OpRequestsFor:
		ok(e)
		e.u64(uint64(svc.APIRequestsFor(f.Queue)))
	case OpTransfer:
		token := d.str()
		n := d.len()
		items := make([]queue.TransferItem, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			it := queue.TransferItem{Body: d.bytes()}
			it.Receives = int(d.i64())
			items = append(items, it)
		}
		if d.err != nil {
			fail(e, ErrCorruptFrame)
			return
		}
		if !queue.TokenAccepted(c.srv.AdminTokens, token) {
			// One answer for "not provisioned", "no token", and "wrong
			// token", exactly like the HTTP transfer endpoint.
			fail(e, queue.ErrNotPrivileged)
			return
		}
		tr, okTr := svc.(queue.Transferrer)
		if !okTr {
			fail(e, queue.ErrNotPrivileged)
			return
		}
		ids, err := tr.TransferInBatch(f.Queue, items)
		if err != nil {
			fail(e, err)
			return
		}
		ok(e)
		appendStrings(e, ids)
	default:
		fail(e, ErrCorruptFrame)
	}
}
