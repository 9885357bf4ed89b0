package sio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrFrameTooLarge is delivered (and the connection closed) when a peer
// announces a frame beyond the configured maximum.
var ErrFrameTooLarge = errors.New("sio: frame exceeds maximum size")

// FrameCallback receives inbound frames. It runs on the connection's
// reader goroutine and must be brief — decode, hand off to a thread, wake
// a waiter. After the first non-nil err (io.EOF for orderly close) no
// further calls are made.
type FrameCallback func(frame []byte, err error)

// Buffer pooling. The remote fabric's hot path sends and receives one
// frame per tuple operation; allocating each frame fresh made the
// allocator the dominant per-op cost (see the span ablation in
// EXPERIMENTS.md). GetBuf/PutBuf recycle byte slices through a sync.Pool,
// and WriteFramePrefixed/StartPooled let callers encode into (and decode
// out of) recycled storage without a copy. Every frame a connection may
// carry fits the pool, a ~70 KB BATCH frame included: the frame limit is
// the one bound, and sync.Pool itself drops an entry left unused for two
// GC cycles, so a burst of large frames does not pin its buffers. Anything
// a callback wants to keep past the pooled lifetime must be deep-copied —
// the tuple codec already copies strings and slices, so decoded values
// never alias pool storage.

// PrefixLen is the frame header size: callers of WriteFramePrefixed
// reserve this many bytes at the front of the buffer for the length.
const PrefixLen = 4

// MaxFrame is the frame limit: a FrameConn's default bound on one frame's
// payload, the remote fabric's, and the largest buffer PutBuf recycles.
const MaxFrame = 1 << 20

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// hdrPool recycles the *[]byte boxes themselves: PutBuf would otherwise
// allocate a fresh header per recycle (&b escapes), which is exactly the
// per-op allocation the pooling exists to remove.
var hdrPool = sync.Pool{New: func() any { return new([]byte) }}

// GetBuf returns a zero-length buffer with pooled capacity. Append into
// it, then hand it back with PutBuf once nothing aliases it.
func GetBuf() []byte {
	p := bufPool.Get().(*[]byte)
	b := (*p)[:0]
	*p = nil
	hdrPool.Put(p)
	return b
}

// PutBuf recycles a buffer obtained from GetBuf (or grown from one).
// A buffer larger than any frame (prefix included) is dropped. Safe to
// call with nil.
func PutBuf(b []byte) {
	if b == nil || cap(b) > PrefixLen+MaxFrame {
		return
	}
	p := hdrPool.Get().(*[]byte)
	*p = b[:0]
	bufPool.Put(p)
}

// FrameConn is the connection-level rendering of this package's callback
// I/O model: it frames a byte stream into length-prefixed messages
// (4-byte big-endian length, then payload), delivers inbound frames via a
// call-back on a background goroutine, and serializes outbound writes.
// Threads never block a VP on the socket: reads happen off-substrate and
// the call-back wakes parked threads, exactly like Device completions.
type FrameConn struct {
	c        net.Conn
	maxFrame uint32
	writeTO  time.Duration

	wmu    sync.Mutex
	closed atomic.Bool

	bytesIn  atomic.Uint64
	bytesOut atomic.Uint64
}

// NewFrameConn wraps c. maxFrame bounds accepted payloads (MaxFrame when
// zero); writeTimeout bounds each WriteFrame so a stalled peer cannot
// wedge a writer for good (default 10s when zero).
func NewFrameConn(c net.Conn, maxFrame uint32, writeTimeout time.Duration) *FrameConn {
	if maxFrame == 0 {
		maxFrame = MaxFrame
	}
	if writeTimeout == 0 {
		writeTimeout = 10 * time.Second
	}
	return &FrameConn{c: c, maxFrame: maxFrame, writeTO: writeTimeout}
}

// Conn returns the underlying connection.
func (fc *FrameConn) Conn() net.Conn { return fc.c }

// BytesIn returns how many bytes have been read, framing included.
func (fc *FrameConn) BytesIn() uint64 { return fc.bytesIn.Load() }

// BytesOut returns how many bytes have been written, framing included.
func (fc *FrameConn) BytesOut() uint64 { return fc.bytesOut.Load() }

// Start launches the reader goroutine: cb receives each inbound frame,
// then exactly one terminal error (io.EOF on orderly close). Each frame is
// a fresh copy and may be retained.
func (fc *FrameConn) Start(cb FrameCallback) {
	fc.StartPooled(func(frame []byte, err error) { cb(bytes.Clone(frame), err) })
}

// StartPooled launches the reader goroutine with recycled frame storage:
// each inbound frame is read into a pooled buffer which is returned to the
// pool as soon as cb returns. The callback must therefore treat the frame
// as borrowed — decode it, deep-copying anything retained — unlike Start,
// whose frames may be kept forever. This removes the per-frame allocation
// on the receive path.
func (fc *FrameConn) StartPooled(cb FrameCallback) {
	go func() {
		var hdr [4]byte
		for {
			if _, err := io.ReadFull(fc.c, hdr[:]); err != nil {
				cb(nil, readErr(err))
				return
			}
			n := binary.BigEndian.Uint32(hdr[:])
			if n > fc.maxFrame {
				cb(nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, fc.maxFrame))
				fc.Close()
				return
			}
			buf := GetBuf()
			if uint32(cap(buf)) < n {
				buf = make([]byte, n)
			} else {
				buf = buf[:n]
			}
			if _, err := io.ReadFull(fc.c, buf); err != nil {
				cb(nil, readErr(err))
				return
			}
			fc.bytesIn.Add(uint64(n) + 4)
			cb(buf, nil)
			PutBuf(buf)
		}
	}()
}

// readErr normalizes a mid-frame EOF: the peer vanished, which callers
// treat like any other broken connection.
func readErr(err error) error {
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return io.EOF
	}
	return err
}

// WriteFrame writes one length-prefixed frame: the payload is copied
// behind a prefix in a pooled buffer and sent by WriteFramePrefixed.
func (fc *FrameConn) WriteFrame(payload []byte) error {
	buf := append(append(GetBuf(), 0, 0, 0, 0), payload...)
	err := fc.WriteFramePrefixed(buf)
	PutBuf(buf)
	return err
}

// WriteFramePrefixed writes one frame whose length header is filled in
// place: buf must start with PrefixLen reserved bytes followed by the
// payload (the GetBuf + append idiom). Unlike WriteFrame there is no
// copy of the payload — the buffer goes to the socket in a single Write.
// Concurrent writers are serialized; each write carries the configured
// deadline. The caller still owns buf afterwards and may PutBuf it.
func (fc *FrameConn) WriteFramePrefixed(buf []byte) error {
	if len(buf) < PrefixLen {
		return fmt.Errorf("%w: %d-byte buffer lacks prefix", ErrFrameTooLarge, len(buf))
	}
	payload := len(buf) - PrefixLen
	if uint32(payload) > fc.maxFrame {
		return fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, payload, fc.maxFrame)
	}
	binary.BigEndian.PutUint32(buf, uint32(payload))
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	if fc.closed.Load() {
		return net.ErrClosed
	}
	if err := fc.c.SetWriteDeadline(time.Now().Add(fc.writeTO)); err == nil {
		defer fc.c.SetWriteDeadline(time.Time{}) //nolint:errcheck
	}
	n, err := fc.c.Write(buf)
	fc.bytesOut.Add(uint64(n))
	return err
}

// Close tears the connection down; the reader call-back receives its
// terminal error shortly after.
func (fc *FrameConn) Close() error {
	if fc.closed.Swap(true) {
		return nil
	}
	return fc.c.Close()
}
