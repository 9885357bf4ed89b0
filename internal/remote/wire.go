// Package remote is the networked tuple-space fabric: it serves STING's
// first-class tuple spaces (§4.2) over TCP so that processes — and, sharded
// by internal/cluster, whole fleets — coordinate through the same
// content-addressable synchronizing memory a single substrate offers
// in-process.
//
// The design keeps the coordination protocol behind a narrow, substrate-
// level interface. The server runs one virtual machine: every request is
// handled by a STING thread scheduled through policy-managed VPs, and a
// blocking Get/Rd parks that thread via the ordinary block/wakeup
// machinery — no OS thread (and no goroutine beyond the thread's recycled
// TCB) is consumed per blocked waiter. Network reads live on per-
// connection sio.FrameConn call-backs, mirroring how the paper's
// non-blocking I/O delivers device completions.
//
// Wire format: length-prefixed frames (sio.FrameConn), payload =
//
//	byte  op
//	u32   request id (big endian)
//	u32   deadline in ms (0 = none; blocking ops only)
//	str   space name (uvarint length + bytes)
//	body  op-specific (tuple, template, stats, …) via the tspace codec
//	ext   zero or more extensions: marker byte, uvarint length, payload
//
// There is one protocol version (protocolVersion); HELLO states it and a
// peer stating another is refused, never downgraded to.
//
// Malformed frames never panic the server: decoding returns ErrProtocol,
// the client receives a protocol error, and the connection closes.
package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/tspace"
)

// protocolVersion is the one wire version this package speaks. Every
// connection opens with a HELLO exchange in which each side states its
// version, and a peer stating any other is refused with ErrUnsupported —
// nothing downgrades. Version 4 is: the request ops and response ops
// below, trailing TLV extensions on request frames (the trace context),
// TXNCOMMIT (a transaction's buffered log, committed atomically
// server-side), BATCH (many non-blocking Puts in one frame, answered by
// one per-entry status frame) and ANNOUNCE (a fire-and-forget note of the
// client's connection-pool size).
const protocolVersion = 4

// ProtocolVersion reports the wire-protocol version this build speaks —
// the sting_build_info label, so a mixed-version cluster is visible from a
// dashboard before a refused HELLO finds it the hard way.
func ProtocolVersion() int { return protocolVersion }

// maxFrame bounds one frame's payload.
const maxFrame = 1 << 20

// maxNameLen bounds a space name on the wire.
const maxNameLen = 256

// Request ops.
const (
	opHello byte = iota + 1
	opPut
	opGet
	opRd
	opTryGet
	opTryRd
	opStats
	opLen
	// opCancel withdraws an in-flight blocking op on the same connection
	// (body: the target request id). Fire-and-forget: the canceled op
	// itself answers with codeCanceled; opCancel has no response of its
	// own, so a stale cancel (the op already finished) is a silent no-op.
	opCancel
	// opTxnCommit ships a transaction's whole buffered log — reads to
	// validate, takes, puts, possibly across several spaces of this
	// server — for one atomic commit. Answers respOK on commit,
	// codeConflict when validation fails (the client retries its body).
	opTxnCommit
	// opBatch coalesces up to maxBatchOps non-blocking Puts —
	// each carrying its own space — into one frame sharing one request id.
	// Answered by a single respBatch with a per-entry status, so one slow
	// entry (say, a redirect) fails alone instead of poisoning the batch.
	opBatch
	// opAnnounce is a fire-and-forget capability note sent after the
	// handshake: body is the client's connection-pool size as a
	// uvarint, feeding the server's sting_remote_conn_pool_size gauge. No
	// response.
	opAnnounce
)

// Response ops (disjoint from requests so a stray frame cannot be
// mistaken for the other direction).
const (
	respOK byte = iota + 64
	respTuple
	respNoMatch
	respErr
	// respStats answers opStats: the rest of the frame is the server's
	// Prometheus text exposition.
	respStats
	respLen
	// respBatch answers an opBatch frame: uvarint entry count, then one
	// status byte per entry (0 = applied) followed by an error message
	// string when the status is nonzero.
	respBatch
)

// maxBatchOps bounds how many Puts one batch frame may carry; the client
// flushes at this count, the server rejects beyond it.
const maxBatchOps = 256

// Wire error codes carried by respErr.
const (
	codeProtocol byte = iota + 1
	codeUnknownOp
	codeBadSpace
	codeTimeout
	codeShutdown
	codeUnsupported
	codeInternal
	codeCanceled
	// codeRedirect rejects a keyed op routed to the wrong shard of a
	// cluster; the message carries "<node-id> <addr>" of the owner.
	codeRedirect
	// codeConflict rejects a TXNCOMMIT whose read validation failed; the
	// client surfaces it as a tspace.ConflictError driving a retry.
	codeConflict
)

// Errors.
var (
	// ErrProtocol wraps every malformed-frame error.
	ErrProtocol = errors.New("remote: protocol error")
	// ErrShutdown is returned for operations interrupted by server drain.
	ErrShutdown = errors.New("remote: server shutting down")
	// ErrDisconnected is the cancel reason for waiters whose client hung up.
	ErrDisconnected = errors.New("remote: client disconnected")
	// ErrUnsupported is returned for operations a remote space cannot
	// perform (Spawn: thunks do not cross address spaces) and for a peer
	// whose HELLO states a protocol version other than this build's.
	ErrUnsupported = errors.New("remote: operation unsupported over the wire")
	// ErrTimeout is matched (errors.Is) by every *TimeoutError.
	ErrTimeout = errors.New("remote: deadline exceeded")
	// ErrCanceled is returned for a blocking op withdrawn by a CANCEL
	// frame from its own client (the cluster fan-out's loser branches).
	ErrCanceled = errors.New("remote: operation canceled")
	// ErrRedirect is matched (errors.Is) by every *RedirectError.
	ErrRedirect = errors.New("remote: keyed op routed to wrong shard")
)

// RedirectError is the typed rejection a cluster-aware server returns for
// a keyed operation whose owning shard — by the membership both sides
// share — is some other node. Clients re-route to Node/Addr or surface a
// configuration mismatch.
type RedirectError struct {
	Op    string
	Space string
	Node  string // owning shard's node id
	Addr  string // owning shard's address
}

func (e *RedirectError) Error() string {
	return fmt.Sprintf("remote: %s on %q belongs to shard %s (%s)", e.Op, e.Space, e.Node, e.Addr)
}

// Is makes errors.Is(err, ErrRedirect) hold.
func (e *RedirectError) Is(target error) bool { return target == ErrRedirect }

// redirectMessage renders the owner for the wire; node ids are validated
// space-free at membership load, so a space separator is unambiguous.
func redirectMessage(e *RedirectError) string { return e.Node + " " + e.Addr }

func parseRedirect(msg, op, space string) *RedirectError {
	node, addr, _ := strings.Cut(msg, " ")
	return &RedirectError{Op: op, Space: space, Node: node, Addr: addr}
}

// TimeoutError is the typed error a deadline-bounded operation returns.
// It matches ErrTimeout via errors.Is and reports Timeout() true, so both
// sentinel checks and net.Error-style probes work.
type TimeoutError struct {
	Op       string
	Space    string
	Deadline time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("remote: %s on %q exceeded deadline %v", e.Op, e.Space, e.Deadline)
}

// Timeout reports true, mirroring net.Error.
func (e *TimeoutError) Timeout() bool { return true }

// Is makes errors.Is(err, ErrTimeout) hold.
func (e *TimeoutError) Is(target error) bool { return target == ErrTimeout }

func protoErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
}

// opName names a request op for stats and errors.
func opName(op byte) string {
	switch op {
	case opHello:
		return "hello"
	case opPut:
		return "put"
	case opGet:
		return "get"
	case opRd:
		return "rd"
	case opTryGet:
		return "tryget"
	case opTryRd:
		return "tryrd"
	case opStats:
		return "stats"
	case opLen:
		return "len"
	case opCancel:
		return "cancel"
	case opTxnCommit:
		return "txncommit"
	case opBatch:
		return "batch"
	case opAnnounce:
		return "announce"
	default:
		return fmt.Sprintf("op%d", op)
	}
}

// Request-frame extension markers. Extensions trail the op body as marker
// byte + uvarint length + payload; unknown markers are skipped, so a new
// extension needs no new protocol version.
const (
	// extTraceCtx propagates the caller's trace context: trace id (16
	// bytes) + parent span id (8 bytes), big-endian.
	extTraceCtx byte = 1
)

const extTraceCtxLen = 24

// batchEntry is one coalesced Put inside an opBatch frame.
type batchEntry struct {
	space string
	tuple tspace.Tuple
	cl    *call // client side only: what the entry's enqueuer waits on
}

// batchStatus is one entry's outcome inside a respBatch frame.
type batchStatus struct {
	code byte // 0 = applied; else a wire error code
	msg  string
}

// request is a decoded client frame.
type request struct {
	op       byte
	id       uint32
	deadline time.Duration
	space    string
	tuple    tspace.Tuple    // opPut
	template tspace.Template // opGet/opRd/opTryGet/opTryRd
	txnOps   []tspace.TxnOp  // opTxnCommit: the buffered commit log
	target   uint32          // opCancel: the request id to withdraw
	version  byte            // opHello: the version the client stated (decode only)
	batch    []batchEntry    // opBatch: the coalesced puts
	poolSize uint32          // opAnnounce: client's connection-pool size

	// Propagated trace context (extTraceCtx); hasTrace gates both
	// encoding the extension and opening a server span.
	trace      obs.TraceID
	parentSpan obs.SpanID
	hasTrace   bool
}

// blockingOp reports whether the op may park a server thread.
func blockingOp(op byte) bool { return op == opGet || op == opRd }

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decodeBytes parses a uvarint-length-prefixed string of at most limit
// bytes, returning it as a slice of b and how much of b it took.
func decodeBytes(b []byte, limit int) ([]byte, int, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, 0, protoErrf("bad string length")
	}
	if l > uint64(limit) {
		return nil, 0, protoErrf("string of %d bytes exceeds limit %d", l, limit)
	}
	if uint64(len(b)-n) < l {
		return nil, 0, protoErrf("truncated string")
	}
	return b[n : n+int(l)], n + int(l), nil
}

func decodeString(b []byte, limit int) (string, int, error) {
	raw, n, err := decodeBytes(b, limit)
	return string(raw), n, err
}

// Space names are low-cardinality and arrive on every frame, so the hot
// decode path interns them: a repeat name is a map lookup (the
// []byte→string key conversion compiles allocation-free), not a copy.
// The table is bounded; past the cap unseen names fall back to a plain
// copy so an adversarial client cannot balloon it.
const maxInternedNames = 4096

var spaceNames = struct {
	mu sync.RWMutex
	m  map[string]string
}{m: make(map[string]string)}

func internName(b []byte) string {
	spaceNames.mu.RLock()
	s, ok := spaceNames.m[string(b)]
	spaceNames.mu.RUnlock()
	if ok {
		return s
	}
	spaceNames.mu.Lock()
	defer spaceNames.mu.Unlock()
	if s, ok := spaceNames.m[string(b)]; ok {
		return s
	}
	if len(spaceNames.m) >= maxInternedNames {
		return string(b)
	}
	s = string(b)
	spaceNames.m[s] = s
	return s
}

// decodeSpaceName is decodeString through the intern table.
func decodeSpaceName(b []byte, limit int) (string, int, error) {
	raw, n, err := decodeBytes(b, limit)
	if err != nil {
		return "", 0, err
	}
	return internName(raw), n, nil
}

// appendRequest appends a request frame payload to dst — the zero-alloc
// encode path when dst comes from sio.GetBuf with sio.PrefixLen reserved.
func appendRequest(dst []byte, req request) ([]byte, error) {
	if len(req.space) > maxNameLen {
		return nil, protoErrf("space name of %d bytes exceeds limit", len(req.space))
	}
	buf := append(dst, req.op)
	buf = binary.BigEndian.AppendUint32(buf, req.id)
	buf = binary.BigEndian.AppendUint32(buf, uint32(req.deadline/time.Millisecond))
	buf = appendString(buf, req.space)
	var err error
	switch req.op {
	case opPut:
		buf, err = tspace.AppendTuple(buf, req.tuple)
	case opGet, opRd, opTryGet, opTryRd:
		buf, err = tspace.AppendTemplate(buf, req.template)
	case opHello:
		buf = append(buf, protocolVersion)
	case opCancel:
		buf = binary.BigEndian.AppendUint32(buf, req.target)
	case opTxnCommit:
		buf, err = tspace.AppendTxnOps(buf, req.txnOps)
	case opBatch:
		if len(req.batch) == 0 || len(req.batch) > maxBatchOps {
			return nil, protoErrf("batch of %d entries", len(req.batch))
		}
		buf = binary.AppendUvarint(buf, uint64(len(req.batch)))
		for _, e := range req.batch {
			if len(e.space) > maxNameLen {
				return nil, protoErrf("space name of %d bytes exceeds limit", len(e.space))
			}
			buf = appendString(buf, e.space)
			buf, err = tspace.AppendTuple(buf, e.tuple)
			if err != nil {
				return nil, err
			}
		}
	case opAnnounce:
		buf = binary.AppendUvarint(buf, uint64(req.poolSize))
	case opStats, opLen:
		// header only
	default:
		err = protoErrf("unknown request op %d", req.op)
	}
	if err != nil {
		return nil, err
	}
	if req.hasTrace {
		buf = append(buf, extTraceCtx)
		buf = binary.AppendUvarint(buf, extTraceCtxLen)
		buf = binary.BigEndian.AppendUint64(buf, req.trace.Hi)
		buf = binary.BigEndian.AppendUint64(buf, req.trace.Lo)
		buf = binary.BigEndian.AppendUint64(buf, uint64(req.parentSpan))
	}
	return buf, nil
}

// DecodeRequest parses a request frame payload. It is exported (within the
// package's test surface) for the fuzzer: whatever bytes arrive, it
// returns a request or an error — never panics.
func decodeRequest(b []byte) (request, error) {
	var req request
	if len(b) < 9 {
		return req, protoErrf("frame of %d bytes shorter than header", len(b))
	}
	req.op = b[0]
	req.id = binary.BigEndian.Uint32(b[1:5])
	req.deadline = time.Duration(binary.BigEndian.Uint32(b[5:9])) * time.Millisecond
	name, n, err := decodeSpaceName(b[9:], maxNameLen)
	if err != nil {
		return req, err
	}
	req.space = name
	rest := b[9+n:]
	var consumed int
	switch req.op {
	case opPut:
		tup, c, err := tspace.DecodeTuple(rest)
		if err != nil {
			return req, protoErrf("put tuple: %v", err)
		}
		req.tuple = tup
		consumed = c
	case opGet, opRd, opTryGet, opTryRd:
		tpl, c, err := tspace.DecodeTemplate(rest)
		if err != nil {
			return req, protoErrf("template: %v", err)
		}
		req.template = tpl
		consumed = c
	case opHello:
		if len(rest) < 1 {
			return req, protoErrf("hello body of %d bytes", len(rest))
		}
		if rest[0] == 0 {
			return req, protoErrf("hello states version 0")
		}
		req.version = rest[0]
		consumed = 1
	case opCancel:
		if len(rest) < 4 {
			return req, protoErrf("cancel body of %d bytes", len(rest))
		}
		req.target = binary.BigEndian.Uint32(rest)
		consumed = 4
	case opTxnCommit:
		ops, c, err := tspace.DecodeTxnOps(rest)
		if err != nil {
			return req, protoErrf("txn ops: %v", err)
		}
		req.txnOps = ops
		consumed = c
	case opBatch:
		l, n := binary.Uvarint(rest)
		if n <= 0 {
			return req, protoErrf("bad batch count")
		}
		if l == 0 || l > maxBatchOps {
			return req, protoErrf("batch of %d entries", l)
		}
		entries := make([]batchEntry, 0, l)
		off := n
		for i := uint64(0); i < l; i++ {
			sp, c, err := decodeSpaceName(rest[off:], maxNameLen)
			if err != nil {
				return req, err
			}
			off += c
			tup, c2, err := tspace.DecodeTuple(rest[off:])
			if err != nil {
				return req, protoErrf("batch tuple %d: %v", i, err)
			}
			off += c2
			entries = append(entries, batchEntry{space: sp, tuple: tup})
		}
		req.batch = entries
		consumed = off
	case opAnnounce:
		l, n := binary.Uvarint(rest)
		if n <= 0 || l > 1<<16 {
			return req, protoErrf("bad announce body")
		}
		req.poolSize = uint32(l)
		consumed = n
	case opStats, opLen:
		consumed = 0
	default:
		return req, protoErrf("unknown request op %d", req.op)
	}
	if err := decodeExtensions(&req, rest[consumed:]); err != nil {
		return req, err
	}
	return req, nil
}

// decodeExtensions parses the TLV tail of a request frame: marker byte +
// uvarint length + payload, repeated. Unknown markers are skipped so
// future extensions coexist with this decoder.
func decodeExtensions(req *request, b []byte) error {
	for len(b) > 0 {
		marker := b[0]
		l, n := binary.Uvarint(b[1:])
		if n <= 0 {
			return protoErrf("bad extension length (marker %d)", marker)
		}
		if l > uint64(len(b)-1-n) {
			return protoErrf("truncated extension (marker %d)", marker)
		}
		payload := b[1+n : 1+n+int(l)]
		b = b[1+n+int(l):]
		switch marker {
		case extTraceCtx:
			if len(payload) != extTraceCtxLen {
				return protoErrf("trace context of %d bytes", len(payload))
			}
			req.trace.Hi = binary.BigEndian.Uint64(payload)
			req.trace.Lo = binary.BigEndian.Uint64(payload[8:])
			req.parentSpan = obs.SpanID(binary.BigEndian.Uint64(payload[16:]))
			req.hasTrace = !req.trace.IsZero()
		default:
			// Unknown extension: skip. New markers must tolerate old peers.
		}
	}
	return nil
}

// response encoders -------------------------------------------------------
//
// Each appends one response payload to dst: a pooled buffer with
// sio.PrefixLen reserved on the serving path, nil in tests.

func appendRespHeader(dst []byte, op byte, id uint32) []byte {
	dst = append(dst, op)
	return binary.BigEndian.AppendUint32(dst, id)
}

// appendOK acknowledges an op; the body is the server's protocol version,
// which is what makes it the HELLO reply too.
func appendOK(dst []byte, id uint32) []byte {
	return append(appendRespHeader(dst, respOK, id), protocolVersion)
}

func appendTupleResp(dst []byte, id uint32, tup tspace.Tuple, bind tspace.Bindings) ([]byte, error) {
	buf, err := tspace.AppendTuple(appendRespHeader(dst, respTuple, id), tup)
	if err != nil {
		return nil, err
	}
	return tspace.AppendBindings(buf, bind)
}

func appendErrResp(dst []byte, id uint32, code byte, msg string) []byte {
	buf := append(appendRespHeader(dst, respErr, id), code)
	if len(msg) > 1024 {
		msg = msg[:1024]
	}
	return appendString(buf, msg)
}

func appendLenResp(dst []byte, id uint32, n int) []byte {
	return binary.AppendVarint(appendRespHeader(dst, respLen, id), int64(n))
}

func appendBatchResp(dst []byte, id uint32, sts []batchStatus) []byte {
	buf := appendRespHeader(dst, respBatch, id)
	buf = binary.AppendUvarint(buf, uint64(len(sts)))
	for _, st := range sts {
		buf = append(buf, st.code)
		if st.code != 0 {
			msg := st.msg
			if len(msg) > 1024 {
				msg = msg[:1024]
			}
			buf = appendString(buf, msg)
		}
	}
	return buf
}

// appendStatsResp frames a STATS reply: the body, to the end of the frame,
// is the server's Prometheus text exposition (Server.WriteStats).
func appendStatsResp(dst []byte, id uint32, text []byte) []byte {
	return append(appendRespHeader(dst, respStats, id), text...)
}

// response is a decoded server frame.
type response struct {
	op      byte
	id      uint32
	tuple   tspace.Tuple
	bind    tspace.Bindings
	code    byte
	message string // respErr: the error text; respStats: the exposition
	length  int64
	version byte          // respOK: the version the server stated
	batch   []batchStatus // respBatch: one status per coalesced entry
}

func decodeResponse(b []byte) (response, error) {
	var r response
	if len(b) < 5 {
		return r, protoErrf("response of %d bytes shorter than header", len(b))
	}
	r.op = b[0]
	r.id = binary.BigEndian.Uint32(b[1:5])
	rest := b[5:]
	switch r.op {
	case respOK:
		if len(rest) != 1 || rest[0] == 0 {
			return r, protoErrf("bad ok body")
		}
		r.version = rest[0]
	case respTuple:
		tup, c, err := tspace.DecodeTuple(rest)
		if err != nil {
			return r, protoErrf("tuple: %v", err)
		}
		bind, c2, err := tspace.DecodeBindings(rest[c:])
		if err != nil {
			return r, protoErrf("bindings: %v", err)
		}
		if len(rest) != c+c2 {
			return r, protoErrf("%d trailing bytes", len(rest)-c-c2)
		}
		r.tuple, r.bind = tup, bind
	case respNoMatch:
		if len(rest) != 0 {
			return r, protoErrf("%d trailing bytes", len(rest))
		}
	case respErr:
		if len(rest) < 1 {
			return r, protoErrf("empty error body")
		}
		r.code = rest[0]
		msg, _, err := decodeString(rest[1:], 4096)
		if err != nil {
			return r, err
		}
		r.message = msg
	case respLen:
		v, n := binary.Varint(rest)
		if n <= 0 {
			return r, protoErrf("bad length")
		}
		r.length = v
	case respStats:
		r.message = string(rest)
	case respBatch:
		l, n := binary.Uvarint(rest)
		if n <= 0 {
			return r, protoErrf("bad batch status count")
		}
		if l == 0 || l > maxBatchOps {
			return r, protoErrf("batch of %d statuses", l)
		}
		sts := make([]batchStatus, 0, l)
		off := n
		for i := uint64(0); i < l; i++ {
			if off >= len(rest) {
				return r, protoErrf("truncated batch status")
			}
			st := batchStatus{code: rest[off]}
			off++
			if st.code != 0 {
				msg, c, err := decodeString(rest[off:], 4096)
				if err != nil {
					return r, err
				}
				st.msg = msg
				off += c
			}
			sts = append(sts, st)
		}
		if off != len(rest) {
			return r, protoErrf("%d trailing bytes", len(rest)-off)
		}
		r.batch = sts
	default:
		return r, protoErrf("unknown response op %d", r.op)
	}
	return r, nil
}

// wireError converts a respErr frame into a typed Go error.
func wireError(r response, op, space string, deadline time.Duration) error {
	switch r.code {
	case codeTimeout:
		return &TimeoutError{Op: op, Space: space, Deadline: deadline}
	case codeShutdown:
		return ErrShutdown
	case codeCanceled:
		return ErrCanceled
	case codeRedirect:
		return parseRedirect(r.message, op, space)
	case codeConflict:
		return &tspace.ConflictError{Space: space, Detail: r.message}
	case codeUnsupported:
		return fmt.Errorf("%w: %s", ErrUnsupported, r.message)
	case codeProtocol, codeUnknownOp:
		return fmt.Errorf("%w: server: %s", ErrProtocol, r.message)
	default:
		return fmt.Errorf("remote: server error (%s): %s", op, r.message)
	}
}
