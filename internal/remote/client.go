package remote

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sio"
	"repro/internal/tspace"
)

// DialConfig tunes the client's retry, deadline, drain, and pipelining
// behaviour. The zero value is usable; every field has a default.
type DialConfig struct {
	// DialRetries bounds how many times Dial (and a mid-session redial)
	// re-attempts the connect+HELLO exchange after a transient failure
	// (default 4, so 5 attempts total).
	DialRetries int
	// BaseBackoff is the first retry's sleep; each further attempt doubles
	// it up to MaxBackoff (defaults 25ms, 1s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// OpRetries bounds how many times an operation is re-sent when its
	// request frame was provably never written (default 2). An op whose
	// frame may have reached the server is never retried — a second Put
	// must not double-deposit.
	OpRetries int
	// Timeout bounds non-blocking round trips (TryGet, Len, Stats, Put)
	// and the HELLO exchange (default 5s). Blocking Get/Rd are bounded by
	// their per-op deadline, enforced server-side.
	Timeout time.Duration
	// WriteTimeout bounds one frame write (default 10s).
	WriteTimeout time.Duration
	// DrainTimeout bounds how long Close waits for in-flight non-blocking
	// operations to complete before failing the rest (default 5s).
	DrainTimeout time.Duration
	// Conns sets the connection-pool size (default 1). With N > 1 each op
	// shards onto a connection by the stable hash of its space+first
	// field (round-robin when unkeyable), so one connection's writer is
	// never the whole client's bottleneck. The pool dials lazily: only
	// the first connection is established by Dial.
	Conns int
	// Batch coalesces Puts into BATCH frames: a per-connection flusher
	// writes whatever accumulated during the previous write (group
	// commit), so a lone Put flushes immediately while a burst amortizes
	// into one frame. Latency-sensitive ops (Get/Rd and their Try probes)
	// are never batched.
	Batch bool
}

func (cfg DialConfig) withDefaults() DialConfig {
	if cfg.DialRetries == 0 {
		cfg.DialRetries = 4
	}
	if cfg.BaseBackoff == 0 {
		cfg.BaseBackoff = 25 * time.Millisecond
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = time.Second
	}
	if cfg.OpRetries == 0 {
		cfg.OpRetries = 2
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	return cfg
}

// backoff returns the sleep before retry attempt (0-based), exponential
// and capped.
func (cfg DialConfig) backoff(attempt int) time.Duration {
	d := cfg.BaseBackoff
	for i := 0; i < attempt && d < cfg.MaxBackoff; i++ {
		d *= 2
	}
	return min(d, cfg.MaxBackoff)
}

// Close-drain and retry sentinels.
var (
	// ErrClientClosed fails the calls still in flight when Close tears
	// the client down — above all blocking Gets parked past DrainTimeout.
	// Distinct from net.ErrClosed, which rejects ops started after Close.
	ErrClientClosed = errors.New("remote: client closed with operation in flight")
	// errUnwritten marks a request whose frame provably never reached the
	// server — the dial failed, or the write did — which is the only case
	// in which an op is re-sent (bounded): a second Put must not
	// double-deposit.
	errUnwritten = errors.New("remote: frame never written")
)

// call is one in-flight request awaiting its response frame.
type call struct {
	mu   sync.Mutex
	done bool
	resp response
	err  error
	ch   chan struct{}
	tcb  *core.TCB    // parked STING waiter to wake, when set
	subs []batchEntry // batch parent: per-entry calls, completed on arrival
}

func newCall() *call { return &call{ch: make(chan struct{})} }

func (c *call) complete(resp response, err error) {
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return
	}
	c.done = true
	c.resp, c.err = resp, err
	tcb := c.tcb
	subs := c.subs
	c.mu.Unlock()
	close(c.ch)
	if tcb != nil {
		core.WakeTCB(tcb)
	}
	if subs != nil {
		distributeBatch(subs, resp, err)
	}
}

func (c *call) completed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done
}

// distributeBatch fans a BATCH reply (or its transport error) out to the
// per-entry calls.
func distributeBatch(items []batchEntry, resp response, err error) {
	if err == nil && resp.op == respErr {
		err = wireError(resp, "batch", "", 0)
	}
	if err == nil && (resp.op != respBatch || len(resp.batch) != len(items)) {
		err = protoErrf("batch reply op %d carries %d statuses for %d entries",
			resp.op, len(resp.batch), len(items))
	}
	if err != nil {
		for _, it := range items {
			it.cl.complete(response{}, err)
		}
		return
	}
	for i, st := range resp.batch {
		if st.code == 0 {
			items[i].cl.complete(response{op: respOK}, nil)
		} else {
			e := wireError(response{op: respErr, code: st.code, message: st.msg}, "put", items[i].space, 0)
			items[i].cl.complete(response{}, e)
		}
	}
}

// Client is a pool of connections to one stingd fabric server. It is safe
// for concurrent use from many STING threads (and from plain goroutines —
// pass a nil context and waits fall back to channels). Concurrent callers
// pipeline over each connection: every request carries an id, the server
// answers non-parking ops in frame order and a parked Get or Rd whenever
// it completes, and the reader call-back demultiplexes — a parked blocking
// Get never head-of-line-blocks later ops. A thread
// waiting for a response parks through the substrate's block/wakeup
// machinery; the reader goroutine completes the call and wakes the TCB,
// mirroring how sio device completions resume their initiators.
type Client struct {
	addr string
	cfg  DialConfig

	closed atomic.Bool
	wg     sync.WaitGroup // in-flight non-blocking ops, for Close's drain
	rr     atomic.Uint64  // round-robin cursor for unkeyable ops

	conns   []*clientConn
	metrics *clientMetrics
}

// clientConn is one pooled connection: its own socket, id space,
// pending-call table, and (when batching) flusher.
type clientConn struct {
	c *Client

	mu      sync.Mutex
	fc      *sio.FrameConn // nil until a HELLO exchange succeeded on it
	pending map[uint32]*call
	nextID  uint32

	bat *batcher // non-nil when cfg.Batch
}

// Dial connects to a fabric server, retrying transient connect/handshake
// failures with exponential backoff, and verifies protocol agreement via
// the HELLO exchange before returning. Pass a nil ctx when dialing from
// plain Go; from a STING thread the retry sleeps and the handshake wait
// park through the substrate. With cfg.Conns > 1 only the first pool
// connection is established here; the rest dial on first use.
func Dial(ctx *core.Context, addr string, cfg DialConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	c := &Client{addr: addr, cfg: cfg, metrics: newClientMetrics()}
	c.conns = make([]*clientConn, cfg.Conns)
	for i := range c.conns {
		cc := &clientConn{c: c, pending: make(map[uint32]*call)}
		if cfg.Batch {
			cc.bat = newBatcher(cc)
		}
		c.conns[i] = cc
	}
	cc := c.conns[0]
	cc.mu.Lock()
	err := cc.redialLocked(ctx)
	cc.mu.Unlock()
	if err != nil {
		c.Close() //nolint:errcheck // joins the flushers; nothing is in flight
		return nil, err
	}
	return c, nil
}

// redialLocked (cc.mu held) establishes a fresh connection with bounded
// retry and the HELLO exchange, then announces the pool size. A peer that
// speaks another protocol version is terminal: no retry changes it.
func (cc *clientConn) redialLocked(ctx *core.Context) error {
	c := cc.c
	t0 := time.Now()
	var lastErr error
	for attempt := 0; attempt <= c.cfg.DialRetries; attempt++ {
		if attempt > 0 {
			c.metrics.dialRetries.Add(1)
			sleep(ctx, c.cfg.backoff(attempt-1))
		}
		if c.closed.Load() {
			return net.ErrClosed
		}
		nc, err := net.DialTimeout("tcp", c.addr, c.cfg.Timeout)
		if err != nil {
			lastErr = err
			continue
		}
		fc := sio.NewFrameConn(nc, maxFrame, c.cfg.WriteTimeout)
		// The HELLO reply (request id 0, which register never hands out)
		// is routed to its call by the reader itself: the pending table
		// is behind cc.mu, held here until the connection is installed.
		hello := newCall()
		fc.StartPooled(func(frame []byte, err error) { cc.onFrame(fc, hello, frame, err) })
		_, err = writeRequest(fc, request{op: opHello})
		if err == nil {
			err = checkHello(c.wait(ctx, hello, request{op: opHello}, c.cfg.Timeout, nil))
		}
		if err != nil {
			fc.Close()
			lastErr = err
			if errors.Is(err, ErrUnsupported) {
				break
			}
			continue
		}
		// Fire-and-forget capability note; feeds the server's
		// sting_remote_conn_pool_size gauge.
		writeRequest(fc, request{op: opAnnounce, poolSize: uint32(len(c.conns))}) //nolint:errcheck
		cc.fc = fc
		c.metrics.dialLatency.ObserveSince(t0)
		return nil
	}
	c.metrics.dialFails.Add(1)
	return fmt.Errorf("remote: dial %s: %w", c.addr, lastErr)
}

// checkHello vets a HELLO reply: the server must acknowledge, stating the
// one version this build speaks.
func checkHello(resp response, err error) error {
	switch {
	case err != nil:
		return err
	case resp.op != respOK:
		return protoErrf("hello reply op %d", resp.op)
	case resp.version != protocolVersion:
		return fmt.Errorf("%w: server speaks protocol version %d, this client %d",
			ErrUnsupported, resp.version, protocolVersion)
	}
	return nil
}

// writeRequest encodes req into a pooled buffer and writes it on fc.
// encoded tells an error of the write from one of the encoding, after
// which nothing has touched the connection.
func writeRequest(fc *sio.FrameConn, req request) (encoded bool, err error) {
	buf := sio.GetBuf()[:sio.PrefixLen]
	frame, err := appendRequest(buf, req)
	if err != nil {
		sio.PutBuf(buf)
		return false, err
	}
	err = fc.WriteFramePrefixed(frame)
	sio.PutBuf(frame)
	return true, err
}

// onFrame is the reader call-back: route responses to pending calls (id 0
// to the connection's HELLO call); on the terminal error fail every
// in-flight call with ErrDisconnected. The frame is pooled (StartPooled) —
// decodeResponse deep-copies everything it retains.
func (cc *clientConn) onFrame(fc *sio.FrameConn, hello *call, frame []byte, err error) {
	var r response
	if err == nil {
		r, err = decodeResponse(frame)
	} else {
		err = ErrDisconnected
	}
	if err != nil {
		// hello first: until it completes redialLocked holds cc.mu, which
		// fail needs.
		hello.complete(response{}, err)
		cc.fail(fc, err)
		return
	}
	if r.id == 0 {
		hello.complete(r, nil)
		return
	}
	cc.mu.Lock()
	cl := cc.pending[r.id]
	delete(cc.pending, r.id)
	cc.mu.Unlock()
	if cl != nil {
		cl.complete(r, nil)
	}
}

// fail tears down fc and (if still current) fails its in-flight calls. The
// socket closes last: the reader then runs fail(ErrDisconnected) itself,
// and must find the calls already failed with this reason.
func (cc *clientConn) fail(fc *sio.FrameConn, reason error) {
	defer fc.Close()
	cc.mu.Lock()
	if cc.fc != fc {
		cc.mu.Unlock()
		return
	}
	cc.fc = nil
	calls := cc.pending
	cc.pending = make(map[uint32]*call)
	cc.mu.Unlock()
	for _, cl := range calls {
		cl.complete(response{}, reason)
	}
}

// Close drains and hangs up: queued batches are flushed, in-flight
// non-blocking ops get up to DrainTimeout to complete, and everything
// still pending after that — above all parked blocking Gets, which could
// otherwise wait forever — fails promptly with ErrClientClosed. Ops
// started after Close return net.ErrClosed.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	for _, cc := range c.conns {
		if cc.bat != nil {
			cc.bat.stop() // drains the queue through a final flush
		}
	}
	drained := make(chan struct{})
	go func() { c.wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(c.cfg.DrainTimeout):
	}
	for _, cc := range c.conns {
		cc.mu.Lock()
		fc := cc.fc
		cc.mu.Unlock()
		if fc != nil { // without a live connection nothing is pending
			cc.fail(fc, ErrClientClosed)
		}
	}
	return nil
}

// sleep pauses for d: through the substrate when on a STING thread, via
// the runtime otherwise.
func sleep(ctx *core.Context, d time.Duration) {
	if ctx == nil {
		time.Sleep(d)
		return
	}
	ctx.BlockUntilDeadline(func() bool { return false }, time.Now().Add(d))
}

// roundTrip sends req and waits for its response. A request whose frame
// was provably never written is retried (bounded, with backoff); once the
// frame may have left, the op is never re-sent. A non-nil tok arms
// client-initiated cancellation: firing it sends a CANCEL frame for the
// in-flight request id on the same connection, and the server answers the
// op with codeCanceled.
//
// A caller on a traced STING thread gets a client span covering the whole
// exchange (retries included); its id travels in the trace-context
// extension, so the server half of the operation parents under it.
func (c *Client) roundTrip(ctx *core.Context, req request, wait time.Duration, tok *tspace.CancelToken) (response, error) {
	var span *obs.Span
	if ctx != nil {
		if sc := ctx.SpanContext(); sc.Valid() {
			if span = obs.StartSpan(sc, "client/"+opName(req.op), obs.SpanClient); span != nil {
				span.SetAttr("space", req.space)
				span.SetAttr("addr", c.addr)
				pctx := span.Context()
				req.trace, req.parentSpan, req.hasTrace = pctx.Trace, pctx.Span, true
			}
		}
	}
	resp, err := c.roundTripRetry(ctx, req, wait, tok, span)
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	span.End()
	return resp, err
}

// roundTripRetry is roundTrip's attempt loop.
func (c *Client) roundTripRetry(ctx *core.Context, req request, wait time.Duration, tok *tspace.CancelToken, span *obs.Span) (response, error) {
	if !blockingOp(req.op) {
		// Blocking ops stay out of the drain group: Close fails them
		// with ErrClientClosed instead of waiting out their park.
		c.wg.Add(1)
		defer c.wg.Done()
	}
	t0 := time.Now()
	// A blocking op's deadline is absolute: once it passes, no redial can
	// still satisfy the op, so expiry is terminal — a timeout, not a
	// transport error to burn dial retries on.
	var expiry time.Time
	if blockingOp(req.op) && req.deadline > 0 {
		expiry = t0.Add(req.deadline)
	}
	var lastErr error
	for attempt := 0; attempt <= c.cfg.OpRetries; attempt++ {
		if attempt > 0 {
			c.metrics.opRetries.Add(1)
			span.Event("retry")
			sleep(ctx, c.cfg.backoff(attempt-1))
		}
		if !expiry.IsZero() && !time.Now().Before(expiry) {
			c.metrics.timeouts.Add(1)
			return response{}, &TimeoutError{Op: opName(req.op), Space: req.space, Deadline: req.deadline}
		}
		if tok != nil && tok.Canceled() {
			return response{}, ErrCanceled
		}
		cc := c.pick(req)
		cl := newCall()
		id, err := cc.send(ctx, cl, req)
		if errors.Is(err, errUnwritten) {
			lastErr = err
			continue
		}
		if err != nil {
			return response{}, err
		}
		if tok != nil {
			// Watch only once the frame is written: the server finds a
			// CANCEL's target only if the CANCEL trails it on the stream.
			// The wait below still runs to the server's authoritative
			// reply: a cancel that loses the race yields a real tuple the
			// caller must dispose of, not a silently dropped one.
			tok.Watch(func(error) { cc.sendCancel(id) })
		}
		resp, err := c.wait(ctx, cl, req, wait, func() { cc.unregister(id) })
		switch {
		case err == nil:
			c.metrics.observeOp(req.op, time.Since(t0))
		case errors.Is(err, ErrTimeout):
			c.metrics.timeouts.Add(1)
		}
		return resp, err
	}
	return response{}, fmt.Errorf("remote: %s on %q: retries exhausted: %w",
		opName(req.op), req.space, lastErr)
}

// pick shards req onto a pool connection: keyed ops hash space+first
// field (so a tuple and the template that awaits it meet on one conn's
// cancel/redial domain), unkeyable ops round-robin, and control ops
// (HELLO, STATS, TXNCOMMIT, …) ride the first connection.
func (c *Client) pick(req request) *clientConn {
	if len(c.conns) == 1 {
		return c.conns[0]
	}
	switch req.op {
	case opPut:
		return c.pickKeyed(req.space, req.tuple)
	case opGet, opRd, opTryGet, opTryRd:
		return c.pickKeyed(req.space, []core.Value(req.template))
	default:
		return c.conns[0]
	}
}

func (c *Client) pickKeyed(space string, fields []core.Value) *clientConn {
	var first core.Value
	if len(fields) > 0 {
		first = fields[0]
	}
	if h, ok := tspace.HashKey(space, first, len(fields)); ok {
		return c.conns[h%uint64(len(c.conns))]
	}
	return c.conns[c.rr.Add(1)%uint64(len(c.conns))]
}

// sendCancel asks the server to withdraw the blocking op with the given
// request id. Fire-and-forget: when the connection is gone the waiter
// dies with it server-side anyway.
func (cc *clientConn) sendCancel(target uint32) {
	cc.mu.Lock()
	fc := cc.fc
	cc.mu.Unlock()
	if fc == nil {
		return
	}
	writeRequest(fc, request{op: opCancel, target: target}) //nolint:errcheck
}

// send is the one write path: register cl under a fresh request id, encode
// req into a pooled buffer and write it. An error wrapping errUnwritten
// means the frame provably never reached the server and the request may be
// re-sent; every other error is terminal for the request (the client is
// closed, the peer speaks another protocol, the request does not encode or
// exceeds the frame limit).
func (cc *clientConn) send(ctx *core.Context, cl *call, req request) (uint32, error) {
	id, fc, err := cc.register(ctx, cl)
	if err != nil {
		if errors.Is(err, net.ErrClosed) || errors.Is(err, ErrUnsupported) {
			return 0, err
		}
		return 0, fmt.Errorf("%w: %w", errUnwritten, err) // the dial failed
	}
	req.id = id
	encoded, err := writeRequest(fc, req)
	if err == nil {
		return id, nil
	}
	cc.unregister(id)
	if !encoded || errors.Is(err, sio.ErrFrameTooLarge) {
		return 0, err // nothing was written; the connection is intact
	}
	if !errors.Is(err, net.ErrClosed) {
		// A partial write still cannot execute server-side (the frame is
		// length-prefixed and incomplete), but the connection is now
		// poisoned mid-stream.
		cc.fail(fc, ErrDisconnected)
	}
	return 0, fmt.Errorf("%w: %w", errUnwritten, err)
}

// register files cl under a fresh request id on a live connection,
// redialing if the previous one died. During Close a live connection keeps
// serving (the drain), but no new dial starts.
func (cc *clientConn) register(ctx *core.Context, cl *call) (uint32, *sio.FrameConn, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.fc == nil {
		if cc.c.closed.Load() {
			return 0, nil, net.ErrClosed
		}
		if err := cc.redialLocked(ctx); err != nil {
			return 0, nil, err
		}
	}
	cc.nextID++
	if cc.nextID == 0 {
		cc.nextID = 1 // 0 is the HELLO exchange's
	}
	cc.pending[cc.nextID] = cl
	return cc.nextID, cc.fc, nil
}

func (cc *clientConn) unregister(id uint32) {
	cc.mu.Lock()
	delete(cc.pending, id)
	cc.mu.Unlock()
}

// deadlineGrace is how much longer than the server-side deadline the
// client waits before giving up locally: the server is authoritative for
// blocking-op timeouts, the local timer only covers a vanished reply.
const deadlineGrace = 250 * time.Millisecond

// wait parks until cl completes or the local deadline passes (invoking
// onTimeout, when set, so the caller can unregister).
func (c *Client) wait(ctx *core.Context, cl *call, req request, wait time.Duration, onTimeout func()) (response, error) {
	timedOut := func() (response, error) {
		if onTimeout != nil {
			onTimeout()
		}
		return response{}, &TimeoutError{Op: opName(req.op), Space: req.space, Deadline: req.deadline}
	}
	var deadline time.Time
	if wait > 0 {
		deadline = time.Now().Add(wait)
	}
	if ctx != nil {
		cl.mu.Lock()
		cl.tcb = ctx.TCB()
		done := cl.done
		cl.mu.Unlock()
		if !done {
			if deadline.IsZero() {
				ctx.BlockUntil(cl.completed)
			} else if !ctx.BlockUntilDeadline(cl.completed, deadline) {
				return timedOut()
			}
		}
	} else if deadline.IsZero() {
		<-cl.ch
	} else {
		t := waitTimers.Get().(*time.Timer)
		t.Reset(time.Until(deadline))
		select {
		case <-cl.ch:
			t.Stop()
			waitTimers.Put(t)
		case <-t.C:
			waitTimers.Put(t)
			return timedOut()
		}
	}
	cl.mu.Lock()
	resp, err := cl.resp, cl.err
	cl.mu.Unlock()
	if err != nil {
		return response{}, err
	}
	if resp.op == respErr {
		return response{}, wireError(resp, opName(req.op), req.space, req.deadline)
	}
	return resp, nil
}

// waitTimers holds stopped timers for waits that have a deadline and no
// STING context. Since Go 1.23 (go.mod's floor) Stop and Reset discard a
// pending fire, so a pooled timer cannot end a later wait early.
var waitTimers = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}}

// waitFor picks the local wait bound for req: blocking ops wait out the
// server-side deadline plus grace (or forever when unbounded); everything
// else uses the client's round-trip timeout.
func (c *Client) waitFor(req request) time.Duration {
	if blockingOp(req.op) {
		if req.deadline > 0 {
			return req.deadline + deadlineGrace
		}
		return 0
	}
	return c.cfg.Timeout
}

// batcher is a connection's Put coalescer: enqueue appends to the open
// batch, a dedicated flusher goroutine writes whatever accumulated while
// the previous frame was in flight (group commit / flush-on-turnaround),
// capped at maxBatchOps entries per frame (flush-on-size).
type batcher struct {
	cc      *clientConn
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []batchEntry
	stopped bool
	done    chan struct{}
}

func newBatcher(cc *clientConn) *batcher {
	b := &batcher{cc: cc, done: make(chan struct{})}
	b.cond = sync.NewCond(&b.mu)
	go b.run()
	return b
}

// enqueue adds one Put to the open batch and returns the call that will
// carry its per-entry status.
func (b *batcher) enqueue(space string, tup tspace.Tuple) (*call, error) {
	cl := newCall()
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return nil, net.ErrClosed
	}
	b.queue = append(b.queue, batchEntry{space: space, tuple: tup, cl: cl})
	b.mu.Unlock()
	b.cond.Signal()
	return cl, nil
}

// stop flushes the remaining queue and joins the flusher.
func (b *batcher) stop() {
	b.mu.Lock()
	b.stopped = true
	b.mu.Unlock()
	b.cond.Broadcast()
	<-b.done
}

func (b *batcher) run() {
	defer close(b.done)
	for {
		b.mu.Lock()
		for len(b.queue) == 0 && !b.stopped {
			b.cond.Wait()
		}
		if len(b.queue) == 0 {
			b.mu.Unlock()
			return // stopped and drained
		}
		// Group-commit turnaround: before cutting the batch, yield the
		// scheduler once per growth step so enqueuers that are already
		// runnable can join this flush. No timed delay — the moment the
		// queue stops growing (or fills a frame) the batch goes out, so a
		// lone Put is never parked behind a timer.
		for prev := 0; len(b.queue) > prev && len(b.queue) < maxBatchOps && !b.stopped; {
			prev = len(b.queue)
			b.mu.Unlock()
			runtime.Gosched()
			b.mu.Lock()
		}
		n := min(len(b.queue), maxBatchOps)
		items := make([]batchEntry, n)
		copy(items, b.queue)
		rest := copy(b.queue, b.queue[n:])
		clear(b.queue[rest:])
		b.queue = b.queue[:rest]
		b.mu.Unlock()
		b.flush(items)
	}
}

// flush writes one BATCH frame carrying items. Entries whose frame
// provably never reached the server fail with errUnwritten (their Put
// wrapper retries).
func (b *batcher) flush(items []batchEntry) {
	cl := newCall()
	cl.subs = items
	// Counted before the write and taken back if it fails: the reply can
	// complete every entry, and their callers read the counters, before
	// send returns.
	m := b.cc.c.metrics
	m.batchFlushes.Add(1)
	m.batchedPuts.Add(uint64(len(items)))
	_, err := b.cc.send(nil, cl, request{op: opBatch, batch: items})
	if err == nil {
		return
	}
	m.batchFlushes.Add(^uint64(0))
	m.batchedPuts.Add(-uint64(len(items)))
	if errors.Is(err, sio.ErrFrameTooLarge) && len(items) > 1 {
		// Entries fit individually but not together: split and retry.
		mid := len(items) / 2
		b.flush(items[:mid])
		b.flush(items[mid:])
		return
	}
	for _, it := range items {
		it.cl.complete(response{}, err)
	}
}

// batchPut routes one Put through the connection's batcher, retrying
// (bounded) entries whose frame provably never left.
func (c *Client) batchPut(ctx *core.Context, space string, tup tspace.Tuple) error {
	c.wg.Add(1)
	defer c.wg.Done()
	var lastErr error
	for attempt := 0; attempt <= c.cfg.OpRetries; attempt++ {
		if attempt > 0 {
			c.metrics.opRetries.Add(1)
			sleep(ctx, c.cfg.backoff(attempt-1))
		}
		cl, err := c.pickKeyed(space, tup).bat.enqueue(space, tup)
		if err != nil {
			return err
		}
		t0 := time.Now()
		resp, err := c.wait(ctx, cl, request{op: opPut, space: space}, c.cfg.Timeout, nil)
		switch {
		case err == nil:
			if resp.op != respOK {
				return protoErrf("put reply op %d", resp.op)
			}
			c.metrics.observeOp(opPut, time.Since(t0))
			return nil
		case errors.Is(err, errUnwritten):
			lastErr = err
		default:
			if errors.Is(err, ErrTimeout) {
				c.metrics.timeouts.Add(1)
			}
			return err
		}
	}
	return fmt.Errorf("remote: put on %q: retries exhausted: %w", space, lastErr)
}

// Stats fetches the server's metrics via the STATS wire op: what
// Server.WriteStats renders, parsed back into samples.
func (c *Client) Stats(ctx *core.Context) ([]obs.Metric, error) {
	resp, err := c.roundTrip(ctx, request{op: opStats}, c.cfg.Timeout, nil)
	if err != nil {
		return nil, err
	}
	if resp.op != respStats {
		return nil, protoErrf("stats reply op %d", resp.op)
	}
	ms, err := obs.ParsePrometheus(strings.NewReader(resp.message))
	if err != nil {
		return nil, protoErrf("stats: %v", err)
	}
	return ms, nil
}

// Ping performs one HELLO round trip — the liveness probe cluster health
// checking runs against each shard.
func (c *Client) Ping(ctx *core.Context) error {
	return checkHello(c.roundTrip(ctx, request{op: opHello}, c.cfg.Timeout, nil))
}

// Addr returns the server address this client dials.
func (c *Client) Addr() string { return c.addr }

// Space returns a handle on the named tuple space. The handle implements
// tspace.TupleSpace, so remote spaces drop into every consumer of the
// local interface (Spawn excepted: thunks do not cross address spaces).
func (c *Client) Space(name string) *Space {
	return &Space{c: c, name: name}
}

// Space is a client-side handle on one named remote tuple space.
type Space struct {
	c        *Client
	name     string
	deadline time.Duration
}

var _ tspace.TupleSpace = (*Space)(nil)

// Deadline returns a derived handle whose blocking Get/Rd carry the given
// per-op deadline; the server expires the wait and replies with a timeout
// error that surfaces as a *TimeoutError.
func (s *Space) Deadline(d time.Duration) *Space {
	return &Space{c: s.c, name: s.name, deadline: d}
}

// Name returns the space's registry name.
func (s *Space) Name() string { return s.name }

// Put deposits a tuple in the remote space. With cfg.Batch it rides the
// connection's batcher (one BATCH frame per flush turnaround); otherwise
// one PUT frame per call.
func (s *Space) Put(ctx *core.Context, tup tspace.Tuple) error {
	if s.c.cfg.Batch {
		return s.c.batchPut(ctx, s.name, tup)
	}
	req := request{op: opPut, space: s.name, tuple: tup}
	resp, err := s.c.roundTrip(ctx, req, s.c.waitFor(req), nil)
	if err != nil {
		return err
	}
	if resp.op != respOK {
		return protoErrf("put reply op %d", resp.op)
	}
	return nil
}

// PendingPut is an in-flight asynchronous Put started by PutAsync.
type PendingPut struct {
	c     *Client
	cl    *call
	space string
}

// PutAsync deposits a tuple without waiting for the acknowledgement:
// the frame is written (or enqueued on the batcher) and a handle is
// returned whose Wait reports the outcome. Unlike Put, an async put is
// never retried — its frame may already be on the wire when an error
// surfaces — and Wait must be called before Close for a guaranteed
// flush. This is the window-of-N idiom the saturation benchmark drives:
// many puts in flight on one connection, completions out of order.
func (s *Space) PutAsync(ctx *core.Context, tup tspace.Tuple) (*PendingPut, error) {
	c := s.c
	cc := c.pickKeyed(s.name, tup)
	var cl *call
	var err error
	if c.cfg.Batch {
		cl, err = cc.bat.enqueue(s.name, tup)
	} else {
		cl = newCall()
		_, err = cc.send(ctx, cl, request{op: opPut, space: s.name, tuple: tup})
	}
	if err != nil {
		return nil, err
	}
	return &PendingPut{c: c, cl: cl, space: s.name}, nil
}

// Wait blocks until the put is acknowledged (bounded by the client's
// round-trip timeout, measured from Wait).
func (p *PendingPut) Wait(ctx *core.Context) error {
	resp, err := p.c.wait(ctx, p.cl, request{op: opPut, space: p.space}, p.c.cfg.Timeout, nil)
	if err != nil {
		if errors.Is(err, errUnwritten) {
			return ErrDisconnected // async puts are not retried
		}
		return err
	}
	if resp.op != respOK {
		return protoErrf("put reply op %d", resp.op)
	}
	return nil
}

// matchTok runs one matching op, optionally governed by a cancel token.
func (s *Space) matchTok(ctx *core.Context, op byte, tpl tspace.Template, tok *tspace.CancelToken) (tspace.Tuple, tspace.Bindings, error) {
	req := request{op: op, space: s.name, template: tpl}
	if blockingOp(op) {
		req.deadline = s.deadline
	}
	resp, err := s.c.roundTrip(ctx, req, s.c.waitFor(req), tok)
	if err != nil {
		return nil, nil, err
	}
	switch resp.op {
	case respTuple:
		return resp.tuple, resp.bind, nil
	case respNoMatch:
		return nil, nil, tspace.ErrNoMatch
	default:
		return nil, nil, protoErrf("%s reply op %d", opName(op), resp.op)
	}
}

// Get removes a matching tuple, blocking (parked server-side as a STING
// thread, parked client-side through BlockUntil) until one exists.
func (s *Space) Get(ctx *core.Context, tpl tspace.Template) (tspace.Tuple, tspace.Bindings, error) {
	return s.matchTok(ctx, opGet, tpl, nil)
}

// Rd reads a matching tuple without removing it, blocking until one exists.
func (s *Space) Rd(ctx *core.Context, tpl tspace.Template) (tspace.Tuple, tspace.Bindings, error) {
	return s.matchTok(ctx, opRd, tpl, nil)
}

// GetCancel is Get governed by tok: firing the token sends a CANCEL frame
// that withdraws the server-side waiter, and the call returns ErrCanceled.
// A cancel that loses the race to a match still returns the tuple — the
// caller owns it and must dispose of it (the cluster fan-out re-deposits).
func (s *Space) GetCancel(ctx *core.Context, tpl tspace.Template, tok *tspace.CancelToken) (tspace.Tuple, tspace.Bindings, error) {
	return s.matchTok(ctx, opGet, tpl, tok)
}

// RdCancel is Rd governed by tok, with GetCancel's semantics (minus
// disposal: a read removes nothing).
func (s *Space) RdCancel(ctx *core.Context, tpl tspace.Template, tok *tspace.CancelToken) (tspace.Tuple, tspace.Bindings, error) {
	return s.matchTok(ctx, opRd, tpl, tok)
}

// TryGet is the non-blocking Get probe.
func (s *Space) TryGet(ctx *core.Context, tpl tspace.Template) (tspace.Tuple, tspace.Bindings, error) {
	return s.matchTok(ctx, opTryGet, tpl, nil)
}

// TryRd is the non-blocking Rd probe.
func (s *Space) TryRd(ctx *core.Context, tpl tspace.Template) (tspace.Tuple, tspace.Bindings, error) {
	return s.matchTok(ctx, opTryRd, tpl, nil)
}

// Spawn is unsupported on remote spaces: thunks are process-local.
func (s *Space) Spawn(ctx *core.Context, thunks ...core.Thunk) ([]*core.Thread, error) {
	return nil, ErrUnsupported
}

var _ tspace.RemoteTxn = (*Space)(nil)

// TxnDomain identifies the commit authority behind this handle: the
// client. Every space reached through one client lands on one server, so
// a transaction touching several of them still commits in a single
// TXNCOMMIT frame; spaces from different clients cannot (no 2PC).
func (s *Space) TxnDomain() any { return s.c }

// TxnSpaceName returns the registry name commit-log ops should carry.
func (s *Space) TxnSpaceName() string { return s.name }

// CommitTxn forwards the buffered commit log to the server.
func (s *Space) CommitTxn(ctx *core.Context, ops []tspace.TxnOp) error {
	return s.c.CommitTxn(ctx, ops)
}

// CommitTxn ships a transaction's buffered log in one TXNCOMMIT frame for
// atomic server-side validation and apply. A validation failure surfaces
// as a *tspace.ConflictError, telling the caller to re-run the body.
//
// Like Put, TXNCOMMIT is not idempotent: it is retried only while the
// frame provably never reached the socket.
func (c *Client) CommitTxn(ctx *core.Context, ops []tspace.TxnOp) error {
	if len(ops) == 0 {
		return nil
	}
	req := request{op: opTxnCommit, space: ops[0].Space, txnOps: ops}
	resp, err := c.roundTrip(ctx, req, c.waitFor(req), nil)
	if err != nil {
		return err
	}
	if resp.op != respOK {
		return protoErrf("txncommit reply op %d", resp.op)
	}
	return nil
}

// Len reports the remote space's depth (0 when the server is unreachable:
// the TupleSpace interface leaves no room for an error).
func (s *Space) Len() int {
	req := request{op: opLen, space: s.name}
	resp, err := s.c.roundTrip(nil, req, s.c.cfg.Timeout, nil)
	if err != nil || resp.op != respLen {
		return 0
	}
	return int(resp.length)
}

// Kind reports KindRemote.
func (s *Space) Kind() tspace.Kind { return tspace.KindRemote }
