package remote

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sio"
	"repro/internal/tspace"
)

// ServerConfig parameterizes the fabric server.
type ServerConfig struct {
	// WriteTimeout bounds one response write so a stalled client cannot
	// wedge a VP (default 10s).
	WriteTimeout time.Duration
	// Registry supplies the named spaces; nil creates a fresh registry of
	// hash spaces.
	Registry *tspace.Registry
	// DisableMetrics turns off the per-op latency histograms (the
	// observability-overhead ablation switch; counters stay on).
	DisableMetrics bool
	// RouteCheck, when set, vets each data op against the cluster routing
	// policy before execution: tuple is non-nil for Put, template for the
	// matching ops. Returning a *RedirectError answers the client with a
	// typed redirect (codeRedirect) naming the owning shard; any other
	// error answers as internal. The substrate stays policy-free — the
	// cluster layer supplies the check (cluster.SelfCheck). Batched Puts
	// are vetted per entry, so one misrouted tuple fails alone.
	RouteCheck func(space string, tuple tspace.Tuple, template tspace.Template) error
}

// Server serves a registry of named tuple spaces over TCP. A request that
// cannot park — Put, TryGet, TryRd, LEN, STATS, and a Get or Rd whose
// tuple is already present — is answered on the connection's reader
// goroutine and costs no thread. A Get or Rd that misses, a match that
// must demand a thread element, BATCH and TXN_COMMIT run as STING threads
// on the server's VM, parked through the ordinary block/wakeup machinery.
// Disconnects and shutdown withdraw parked waiters through
// tspace.CancelToken, so no registration outlives its connection.
//
// Requests pipeline freely. Non-parking ops on one connection are answered
// in frame order; a parked Get or Rd answers whenever its tuple arrives,
// so it never head-of-line-blocks the ops queued behind it (the request id
// pairs responses up client-side).
type Server struct {
	vm    *core.VM
	reg   *tspace.Registry
	cfg   ServerConfig
	stats Stats

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*serverConn]struct{}
	closed atomic.Bool

	ops sync.WaitGroup // in-flight requests, on the reader or a thread
}

// NewServer creates a server for vm. The VM's policy managers schedule the
// request threads; pick them as you would for any workload (a worker-farm
// global FIFO suits uniform request streams).
func NewServer(vm *core.VM, cfg ServerConfig) *Server {
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = tspace.NewRegistry(tspace.KindHash, tspace.Config{})
	}
	s := &Server{
		vm:    vm,
		reg:   cfg.Registry,
		cfg:   cfg,
		conns: make(map[*serverConn]struct{}),
	}
	if !cfg.DisableMetrics {
		s.stats.initLatency()
	}
	s.stats.initPipeline()
	return s
}

// Registry returns the server's space registry.
func (s *Server) Registry() *tspace.Registry { return s.reg }

// Stats snapshots the server counters and space depths.
func (s *Server) Stats() StatsSnapshot {
	return s.stats.Snapshot(s.reg.Depths())
}

// maxAnnouncedPool reports the largest connection-pool size any live
// client has announced (ANNOUNCE); 0 when none has.
func (s *Server) maxAnnouncedPool() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	largest := 0
	for sc := range s.conns {
		if n := int(sc.poolSize.Load()); n > largest {
			largest = n
		}
	}
	return largest
}

// ParkedOp describes one blocking request currently parked server-side —
// who is waiting (which connection), on what (op and space), since when.
// The runtime diagnoser folds these into /debug/diag.
type ParkedOp struct {
	Conn  string
	Op    string
	Space string
	Since time.Time
}

// Parked snapshots every blocking op currently parked on the server.
func (s *Server) Parked() []ParkedOp {
	s.mu.Lock()
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	var out []ParkedOp
	for _, sc := range conns {
		addr := ""
		if c := sc.fc.Conn(); c != nil && c.RemoteAddr() != nil {
			addr = c.RemoteAddr().String()
		}
		sc.mu.Lock()
		for _, pt := range sc.tokens {
			out = append(out, ParkedOp{Conn: addr, Op: opName(pt.op), Space: pt.space, Since: pt.since})
		}
		sc.mu.Unlock()
	}
	return out
}

// Serve accepts connections on ln until Shutdown (or a listener error).
// It blocks; run it on its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		ln.Close()
		return ErrShutdown
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		s.addConn(c)
	}
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown drains the server: stop accepting, withdraw every parked
// waiter with ErrShutdown (clients receive a shutdown error, not silence),
// wait for in-flight requests, then close the connections.
func (s *Server) Shutdown() {
	if s.closed.Swap(true) {
		return
	}
	s.mu.Lock()
	ln := s.ln
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, sc := range conns {
		sc.cancelAll(ErrShutdown)
	}
	s.ops.Wait()
	for _, sc := range conns {
		sc.teardown()
	}
}

func (s *Server) addConn(c net.Conn) {
	sc := &serverConn{
		s:      s,
		fc:     sio.NewFrameConn(c, maxFrame, s.cfg.WriteTimeout),
		tokens: make(map[uint32]parkedToken),
	}
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		c.Close()
		return
	}
	s.conns[sc] = struct{}{}
	s.mu.Unlock()
	s.stats.Conns.Add(1)
	s.stats.ConnsActive.Add(1)
	// Pooled reads: the frame buffer is recycled after the call-back
	// returns; decodeRequest deep-copies everything it retains.
	sc.fc.StartPooled(func(frame []byte, err error) {
		if err != nil {
			sc.teardown()
			return
		}
		s.stats.BytesIn.Add(uint64(len(frame)) + 4)
		s.handleFrame(sc, frame)
	})
}

func (s *Server) removeConn(sc *serverConn) {
	s.mu.Lock()
	_, present := s.conns[sc]
	delete(s.conns, sc)
	s.mu.Unlock()
	if present {
		s.stats.ConnsActive.Add(-1)
	}
}

// handleFrame runs on the connection's reader goroutine: decode, then
// answer the op there or hand it to a STING thread. Protocol errors answer
// best-effort and close the connection — a malformed peer gets no second
// frame. Service latency is measured from frame arrival to response
// completion, so blocking ops include their park time — the latency a
// client observes.
func (s *Server) handleFrame(sc *serverConn, frame []byte) {
	t0 := time.Now()
	req, err := decodeRequest(frame)
	if err != nil {
		s.stats.ProtoErrors.Add(1)
		sc.sendErr(req.id, codeProtocol, err.Error())
		sc.teardown()
		return
	}
	s.stats.serve(req.op)
	switch req.op {
	case opHello:
		if req.version != protocolVersion {
			// Refused, never downgraded to: whatever the peer sent next
			// would be decoded by rules it does not follow.
			sc.sendErr(req.id, codeUnsupported, fmt.Sprintf(
				"client speaks protocol version %d, this server %d", req.version, protocolVersion))
			sc.teardown()
			return
		}
		sc.sendOK(req.id)
		s.stats.observe(req.op, time.Since(t0))
		return
	case opCancel:
		// Fire-and-forget, handled on the reader so a cancel never queues
		// behind the op it targets.
		sc.cancelID(req.target)
		return
	case opAnnounce:
		// Fire-and-forget capability note; remembered for the pool-size
		// gauge, no response.
		sc.poolSize.Store(req.poolSize)
		return
	}
	if s.closed.Load() {
		sc.sendErr(req.id, codeShutdown, ErrShutdown.Error())
		return
	}
	// Depth is sampled at dispatch: how many requests this connection had
	// in flight when the frame arrived (1 = strict request/response, more
	// = the client is pipelining).
	depth := sc.inflight.Add(1)
	if h := s.stats.PipelineDepth; h != nil {
		h.Observe(float64(depth))
	}
	// A propagated trace context opens a server span measured from frame
	// arrival, so it covers queueing and — for blocking ops — park time:
	// the latency the client's span observes. A request thread inherits
	// the span's context, making in-process work it forks children of it.
	var span *obs.Span
	if req.hasTrace {
		span = obs.StartSpanAt(obs.SpanContext{Trace: req.trace, Span: req.parentSpan},
			spanNames[req.op], obs.SpanServer, t0.UnixNano())
		span.SetAttr("space", req.space)
	}
	s.ops.Add(1)
	// An op that cannot park is answered here, in frame order; a thread is
	// spawned only for one that must block or demand a thread element.
	if req.op != opBatch && req.op != opTxnCommit && s.serveOp(nil, sc, req, nil) {
		s.finish(sc, req.op, span, t0)
		return
	}
	s.spawnOp(sc, req, span, t0)
}

// spawnOp serves req on a STING thread. A blocking op's cancel token is
// registered here, on the reader, not on the thread: CANCEL is handled on
// this same goroutine and trails its target on the stream, so it always
// finds the token.
func (s *Server) spawnOp(sc *serverConn, req request, span *obs.Span, t0 time.Time) {
	var tok *tspace.CancelToken
	if blockingOp(req.op) {
		tok = tspace.NewCancelToken()
		if !sc.addToken(req.id, tok, req.op, req.space) {
			s.finish(sc, req.op, span, t0) // connection gone; nobody to answer
			return
		}
	}
	s.vm.Spawn(func(ctx *core.Context) ([]core.Value, error) {
		s.serveOp(ctx, sc, req, tok)
		if tok != nil {
			sc.removeToken(req.id)
		}
		s.finish(sc, req.op, span, t0)
		return nil, nil
	}, core.WithName(threadNames[req.op]), core.WithSpanContext(span.Context()))
}

// finish closes a request's bookkeeping once it is answered, on the reader
// or on its thread.
func (s *Server) finish(sc *serverConn, op byte, span *obs.Span, t0 time.Time) {
	span.End()
	s.stats.observe(op, time.Since(t0))
	sc.inflight.Add(-1)
	s.ops.Done()
}

// threadNames and spanNames name request threads and server spans per op,
// built once so that naming allocates nothing per request.
var threadNames, spanNames = prefixedOpNames("stingd/"), prefixedOpNames("server/")

func prefixedOpNames(prefix string) (names [opAnnounce + 1]string) {
	for op := range names {
		names[op] = prefix + opName(byte(op))
	}
	return names
}

// routeStatus vets one op against the cluster routing policy: code 0 means
// go ahead, codeRedirect names the owning shard in msg, anything else the
// check failed to decide.
func (s *Server) routeStatus(space string, tup tspace.Tuple, tpl tspace.Template) batchStatus {
	if s.cfg.RouteCheck == nil {
		return batchStatus{}
	}
	err := s.cfg.RouteCheck(space, tup, tpl)
	if err == nil {
		return batchStatus{}
	}
	var re *RedirectError
	if errors.As(err, &re) {
		s.stats.Redirects.Add(1)
		return batchStatus{code: codeRedirect, msg: redirectMessage(re)}
	}
	return batchStatus{code: codeInternal, msg: err.Error()}
}

// serveOp executes one decoded request; tok is the cancel token of a
// blocking op, nil otherwise. On the reader ctx is nil, and serveOp then
// answers only what needs no thread: it reports false, having sent
// nothing, for a Get or Rd that misses and for a match or Put that meets a
// thread element (tspace.ErrNeedsThread).
func (s *Server) serveOp(ctx *core.Context, sc *serverConn, req request, tok *tspace.CancelToken) bool {
	switch req.op {
	case opStats:
		// The text follows a 5-byte header (op byte, request id). A reply
		// too large for one frame is refused with an error reply: sending
		// it would fail the write and drop the connection.
		var text bytes.Buffer
		_ = s.WriteStats(&text) // a bytes.Buffer write cannot fail
		if n := 5 + text.Len(); n > maxFrame {
			sc.sendErr(req.id, codeInternal, fmt.Sprintf("stats reply of %d bytes exceeds the %d-byte frame limit", n, maxFrame))
			return true
		}
		sc.sendPooled(appendStatsResp(sio.GetBuf()[:sio.PrefixLen], req.id, text.Bytes()))
		return true
	case opLen:
		sc.sendPooled(appendLenResp(sio.GetBuf()[:sio.PrefixLen], req.id, s.reg.OpenDefault(req.space).Len()))
		return true
	case opTxnCommit:
		s.serveTxnCommit(ctx, sc, req)
		return true
	case opBatch:
		s.serveBatch(ctx, sc, req)
		return true
	}
	// Only the data ops reach here, so exactly one of tuple and template
	// is set — which is how RouteCheck tells a Put from a match.
	if st := s.routeStatus(req.space, req.tuple, req.template); st.code != 0 {
		sc.sendErr(req.id, st.code, st.msg)
		return true
	}
	ts := s.reg.OpenDefault(req.space)
	switch req.op {
	case opPut:
		err := ts.Put(ctx, req.tuple)
		switch {
		case err == tspace.ErrNeedsThread:
			return false
		case err != nil:
			sc.sendErr(req.id, codeInternal, err.Error())
		default:
			sc.sendOK(req.id)
		}
	case opGet, opRd, opTryGet, opTryRd:
		if ctx != nil && blockingOp(req.op) {
			s.serveBlocking(ctx, sc, req, ts, tok)
			return true
		}
		var tup tspace.Tuple
		var bind tspace.Bindings
		var err error
		if req.op == opTryGet || req.op == opGet {
			tup, bind, err = ts.TryGet(ctx, req.template)
		} else {
			tup, bind, err = ts.TryRd(ctx, req.template)
		}
		if err == tspace.ErrNeedsThread || err == tspace.ErrNoMatch && blockingOp(req.op) {
			return false
		}
		sc.sendMatch(req, tup, bind, err)
	default:
		sc.sendErr(req.id, codeUnknownOp, "unknown op")
	}
	return true
}

// serveBatch applies one BATCH frame: every entry is route-checked and
// deposited independently, and the single respBatch reply carries one
// status per entry — a misrouted or unstorable tuple fails alone instead
// of poisoning its neighbours. One thread serves the whole frame: hash-
// space Puts never block, so there is nothing to park per entry.
func (s *Server) serveBatch(ctx *core.Context, sc *serverConn, req request) {
	sts := make([]batchStatus, len(req.batch))
	applied := 0
	for i, e := range req.batch {
		if sts[i] = s.routeStatus(e.space, e.tuple, nil); sts[i].code != 0 {
			continue
		}
		if err := s.reg.OpenDefault(e.space).Put(ctx, e.tuple); err != nil {
			sts[i] = batchStatus{code: codeInternal, msg: err.Error()}
			continue
		}
		applied++
	}
	if h := s.stats.BatchSize; h != nil {
		h.Observe(float64(len(req.batch)))
	}
	s.stats.BatchPuts.Add(uint64(applied))
	sc.sendPooled(appendBatchResp(sio.GetBuf()[:sio.PrefixLen], req.id, sts))
}

// serveTxnCommit applies a whole buffered transaction log atomically: the
// wire half of the STM subsystem. Every op is route-checked (a cluster
// transaction must have been routed to the shard owning every key), every
// named space must support transactions, and validation failures answer
// codeConflict so the client's Atomic loop retries its body.
func (s *Server) serveTxnCommit(ctx *core.Context, sc *serverConn, req request) {
	for _, op := range req.txnOps {
		if st := s.routeStatus(op.Space, op.Tup, nil); st.code != 0 {
			sc.sendErr(req.id, st.code, st.msg)
			return
		}
	}
	cops := make([]tspace.CommitOp, 0, len(req.txnOps))
	for _, op := range req.txnOps {
		ts := s.reg.OpenDefault(op.Space)
		txs, ok := ts.(tspace.TxnSpace)
		if !ok {
			sc.sendErr(req.id, codeUnsupported,
				fmt.Sprintf("space %q (%s) does not support transactions", op.Space, ts.Kind()))
			return
		}
		cops = append(cops, tspace.CommitOp{
			Space: txs, Name: op.Space, Kind: op.Kind, Ver: op.Ver, Tup: op.Tup,
		})
	}
	if err := tspace.ApplyCommit(ctx, cops); err != nil {
		var ce *tspace.ConflictError
		if errors.As(err, &ce) {
			msg := ce.Detail
			if ce.Space != "" {
				msg = ce.Space + ": " + ce.Detail
			}
			sc.sendErr(req.id, codeConflict, msg)
		} else {
			sc.sendErr(req.id, codeInternal, err.Error())
		}
		return
	}
	sc.sendOK(req.id)
}

// serveBlocking runs a Get/Rd that may park the thread. tok is registered
// with the connection (handleFrame), so a CANCEL frame or a disconnect
// withdraws the waiter; a deadline arms a timer that cancels with a
// timeout reason.
func (s *Server) serveBlocking(ctx *core.Context, sc *serverConn, req request, ts tspace.TupleSpace, tok *tspace.CancelToken) {
	var timedOut atomic.Bool
	if req.deadline > 0 {
		timer := time.AfterFunc(req.deadline, func() {
			timedOut.Store(true)
			tok.Cancel(ErrTimeout)
		})
		defer timer.Stop()
	}
	s.stats.Blocked.Add(1)
	var tup tspace.Tuple
	var bind tspace.Bindings
	var err error
	tspace.WithCancel(ctx, tok, func() {
		if req.op == opGet {
			tup, bind, err = ts.Get(ctx, req.template)
		} else {
			tup, bind, err = ts.Rd(ctx, req.template)
		}
	})
	s.stats.Blocked.Add(-1)
	switch {
	case err == nil:
		sc.sendMatch(req, tup, bind, nil)
	case timedOut.Load() || err == ErrTimeout:
		s.stats.Timeouts.Add(1)
		sc.sendErr(req.id, codeTimeout,
			(&TimeoutError{Op: opName(req.op), Space: req.space, Deadline: req.deadline}).Error())
	case err == ErrDisconnected:
		s.stats.Canceled.Add(1) // client gone; no reply possible
	case err == ErrCanceled:
		s.stats.Canceled.Add(1) // withdrawn by the client's CANCEL frame
		sc.sendErr(req.id, codeCanceled, ErrCanceled.Error())
	case err == ErrShutdown:
		s.stats.Canceled.Add(1)
		sc.sendErr(req.id, codeShutdown, ErrShutdown.Error())
	default:
		sc.sendMatch(req, nil, nil, err)
	}
}

// serverConn tracks one client connection and its in-flight blocking ops.
type serverConn struct {
	s  *Server
	fc *sio.FrameConn

	// inflight counts dispatched requests not yet answered — the sample
	// the pipeline-depth histogram records at each arrival.
	inflight atomic.Int64

	// poolSize is the connection-pool size the client announced (0 until
	// an ANNOUNCE arrives).
	poolSize atomic.Uint32

	mu     sync.Mutex
	tokens map[uint32]parkedToken
	gone   bool
}

// parkedToken pairs a blocking op's cancel token with what the op is —
// the introspection the runtime diagnoser reports as "remote parks".
type parkedToken struct {
	tok   *tspace.CancelToken
	op    byte
	space string
	since time.Time
}

// addToken registers a blocking op; false means the connection is gone.
func (sc *serverConn) addToken(id uint32, tok *tspace.CancelToken, op byte, space string) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.gone {
		return false
	}
	sc.tokens[id] = parkedToken{tok: tok, op: op, space: space, since: time.Now()}
	return true
}

// cancelID withdraws the blocking op with the given request id; a stale
// cancel (the op already answered) finds no token and is a no-op.
func (sc *serverConn) cancelID(id uint32) {
	sc.mu.Lock()
	tok := sc.tokens[id].tok
	sc.mu.Unlock()
	if tok != nil {
		tok.Cancel(ErrCanceled)
	}
}

func (sc *serverConn) removeToken(id uint32) {
	sc.mu.Lock()
	delete(sc.tokens, id)
	sc.mu.Unlock()
}

// cancelAll withdraws every parked waiter of this connection.
func (sc *serverConn) cancelAll(reason error) {
	sc.mu.Lock()
	toks := make([]*tspace.CancelToken, 0, len(sc.tokens))
	for _, t := range sc.tokens {
		toks = append(toks, t.tok)
	}
	sc.mu.Unlock()
	for _, t := range toks {
		t.Cancel(reason)
	}
}

// teardown handles a dead connection: mark gone, withdraw waiters, close.
func (sc *serverConn) teardown() {
	sc.mu.Lock()
	already := sc.gone
	sc.gone = true
	sc.mu.Unlock()
	if already {
		return
	}
	sc.cancelAll(ErrDisconnected)
	sc.s.removeConn(sc)
	sc.fc.Close()
}

// sendPooled writes a response assembled in a pooled buffer (sio.GetBuf
// with sio.PrefixLen reserved), counting bytes, and returns the buffer to
// the pool; write errors tear the connection down (the reader call-back
// finishes the cleanup).
func (sc *serverConn) sendPooled(frame []byte) {
	err := sc.fc.WriteFramePrefixed(frame)
	n := len(frame)
	sio.PutBuf(frame)
	if err != nil {
		sc.teardown()
		return
	}
	sc.s.stats.BytesOut.Add(uint64(n)) // includes the length prefix
}

// sendOK acknowledges an op (HELLO included: the frame states the version).
func (sc *serverConn) sendOK(id uint32) {
	sc.sendPooled(appendOK(sio.GetBuf()[:sio.PrefixLen], id))
}

// sendErr answers with a typed wire error.
func (sc *serverConn) sendErr(id uint32, code byte, msg string) {
	sc.sendPooled(appendErrResp(sio.GetBuf()[:sio.PrefixLen], id, code, msg))
}

// sendMatch renders a (tuple, bindings, error) triple as a response.
func (sc *serverConn) sendMatch(req request, tup tspace.Tuple, bind tspace.Bindings, err error) {
	switch {
	case err == nil:
		buf := sio.GetBuf()[:sio.PrefixLen]
		frame, encErr := appendTupleResp(buf, req.id, tup, bind)
		if encErr != nil {
			// The matched tuple holds process-local values (threads); it
			// cannot travel. Report rather than drop silently.
			sio.PutBuf(buf)
			sc.sendErr(req.id, codeUnsupported, encErr.Error())
			return
		}
		sc.sendPooled(frame)
	case err == tspace.ErrNoMatch:
		sc.sendPooled(appendRespHeader(sio.GetBuf()[:sio.PrefixLen], respNoMatch, req.id))
	default:
		sc.sendErr(req.id, codeInternal, err.Error())
	}
}
