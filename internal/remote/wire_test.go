package remote

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/sio"
	"repro/internal/tspace"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []request{
		{op: opHello, id: 1},
		{op: opPut, id: 2, space: "jobs", tuple: tspace.Tuple{"job", int64(7), 3.5, "s", true, nil}},
		{op: opGet, id: 3, deadline: 250 * time.Millisecond, space: "jobs",
			template: tspace.Template{"job", tspace.F("n")}},
		{op: opTryRd, id: 4, space: "q", template: tspace.Template{tspace.F("")}},
		{op: opStats, id: 5},
		{op: opLen, id: 6, space: "jobs"},
	}
	for _, want := range cases {
		frame, err := appendRequest(nil, want)
		if err != nil {
			t.Fatalf("encode %s: %v", opName(want.op), err)
		}
		got, err := decodeRequest(frame)
		if err != nil {
			t.Fatalf("decode %s: %v", opName(want.op), err)
		}
		if got.op != want.op || got.id != want.id || got.space != want.space ||
			got.deadline != want.deadline {
			t.Fatalf("header mismatch: got %+v want %+v", got, want)
		}
		if len(got.tuple) != len(want.tuple) || len(got.template) != len(want.template) {
			t.Fatalf("body mismatch: got %+v want %+v", got, want)
		}
	}
}

func TestDecodeRequestRejectsMalformed(t *testing.T) {
	valid, _ := appendRequest(nil, request{op: opPut, id: 1, space: "s", tuple: tspace.Tuple{"x", 1}})
	cases := map[string][]byte{
		"empty":            {},
		"short header":     {opPut, 0, 0},
		"unknown op":       {99, 0, 0, 0, 1, 0, 0, 0, 0, 0},
		"bad name length":  {opLen, 0, 0, 0, 1, 0, 0, 0, 0, 0xff},
		"truncated tuple":  valid[:len(valid)-1],
		"trailing bytes":   append(bytes.Clone(valid), 0),
		"oversized name":   append([]byte{opLen, 0, 0, 0, 1, 0, 0, 0, 0, 0xff, 0x7f}, make([]byte, 300)...),
		"bad hello body":   {opHello, 0, 0, 0, 1, 0, 0, 0, 0, 0},
		"version zero":     {opHello, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0},
		"stats with body":  {opStats, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1},
		"template in put":  mustEncodeTemplateAsPut(t),
		"formal arity lie": {opGet, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0xff},
	}
	for name, b := range cases {
		if _, err := decodeRequest(b); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: err = %v, want ErrProtocol", name, err)
		}
	}
}

// mustEncodeTemplateAsPut builds an opPut frame whose body is a template
// (contains a formal) — the decoder must reject formals in tuples.
func mustEncodeTemplateAsPut(t *testing.T) []byte {
	t.Helper()
	frame, err := appendRequest(nil, request{op: opGet, id: 9, space: "s",
		template: tspace.Template{tspace.F("x")}})
	if err != nil {
		t.Fatalf("encode template: %v", err)
	}
	frame = bytes.Clone(frame)
	frame[0] = opPut
	return frame
}

func TestResponseRoundTrip(t *testing.T) {
	tup := tspace.Tuple{"r", int64(1)}
	bind := tspace.Bindings{"x": int64(1)}
	frame, err := appendTupleResp(nil, 7, tup, bind)
	if err != nil {
		t.Fatalf("appendTupleResp: %v", err)
	}
	r, err := decodeResponse(frame)
	if err != nil {
		t.Fatalf("decodeResponse: %v", err)
	}
	if r.op != respTuple || r.id != 7 || r.tuple[0] != "r" || r.bind["x"] != int64(1) {
		t.Fatalf("decoded %+v", r)
	}

	r, err = decodeResponse(appendErrResp(nil, 8, codeTimeout, "late"))
	if err != nil {
		t.Fatalf("decode err resp: %v", err)
	}
	werr := wireError(r, "get", "jobs", time.Second)
	if !errors.Is(werr, ErrTimeout) {
		t.Fatalf("wireError = %v, want timeout", werr)
	}
	r, _ = decodeResponse(appendErrResp(nil, 9, codeShutdown, "bye"))
	if !errors.Is(wireError(r, "get", "jobs", 0), ErrShutdown) {
		t.Fatal("shutdown code not mapped")
	}

	r, err = decodeResponse(appendLenResp(nil, 10, 42))
	if err != nil || r.length != 42 {
		t.Fatalf("len resp: %v %+v", err, r)
	}

	text := "# TYPE sting_remote_timeouts_total counter\nsting_remote_timeouts_total 2\n" +
		"# TYPE sting_tspace_depth gauge\nsting_tspace_depth{space=\"jobs\",kind=\"hash\"} 4\n"
	r, err = decodeResponse(appendStatsResp(nil, 11, []byte(text)))
	if err != nil {
		t.Fatalf("stats resp: %v", err)
	}
	if r.op != respStats || r.message != text {
		t.Fatalf("stats decoded %+v", r)
	}
}

// rawConn dials addr as a bare framed socket — no Client, no HELLO — and
// delivers what the server sends: each frame, then the terminal error.
func rawConn(t *testing.T, addr string) (*sio.FrameConn, <-chan []byte, <-chan error) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	fc := sio.NewFrameConn(nc, maxFrame, time.Second)
	t.Cleanup(func() { fc.Close() })
	frames := make(chan []byte, 64)
	errs := make(chan error, 1)
	fc.Start(func(frame []byte, err error) {
		if err != nil {
			errs <- err
			return
		}
		frames <- frame
	})
	return fc, frames, errs
}

// TestServerClosesOnMalformedFrame: a garbage frame draws a protocol
// error response and the connection is closed — satellite requirement.
func TestServerClosesOnMalformedFrame(t *testing.T) {
	srv, addr := startServer(t)
	fc, frames, errs := rawConn(t, addr)
	if err := fc.WriteFrame([]byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatalf("write garbage: %v", err)
	}
	select {
	case frame := <-frames:
		r, err := decodeResponse(frame)
		if err != nil {
			t.Fatalf("reply undecodable: %v", err)
		}
		if r.op != respErr || r.code != codeProtocol {
			t.Fatalf("reply op=%d code=%d, want respErr/codeProtocol", r.op, r.code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no protocol-error reply")
	}
	select {
	case err := <-errs:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("terminal err = %v, want EOF (connection closed)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server left the connection open after a malformed frame")
	}
	if srv.Stats().ProtoErrors != 1 {
		t.Fatalf("proto errors = %d, want 1", srv.Stats().ProtoErrors)
	}
}

// FuzzDecodeFrame: whatever bytes arrive, request and response decoding
// must return a value or an error — never panic (satellite #3). Valid
// encodings must survive a round trip.
func FuzzDecodeFrame(f *testing.F) {
	seeds := []request{
		{op: opHello, id: 1},
		{op: opPut, id: 2, space: "jobs", tuple: tspace.Tuple{"job", int64(7), 2.5, true, nil}},
		{op: opGet, id: 3, deadline: time.Second, space: "jobs",
			template: tspace.Template{"job", tspace.F("n")}},
		{op: opStats, id: 4},
		{op: opLen, id: 5, space: "q"},
		{op: opBatch, id: 6, batch: []batchEntry{
			{space: "a", tuple: tspace.Tuple{"x", int64(1)}},
			{space: "b", tuple: tspace.Tuple{true, nil}},
		}},
		{op: opAnnounce, id: 7, poolSize: 4},
	}
	for _, req := range seeds {
		frame, err := appendRequest(nil, req)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		f.Add(frame)
	}
	if frame, err := appendTupleResp(nil, 6, tspace.Tuple{"r", int64(1)}, tspace.Bindings{"x": int64(1)}); err == nil {
		f.Add(frame)
	}
	f.Add(appendErrResp(nil, 7, codeTimeout, "t"))
	f.Add(appendStatsResp(nil, 8, []byte("sting_remote_timeouts_total 1\n")))
	f.Add(appendBatchResp(nil, 9, []batchStatus{{code: 0}, {code: codeRedirect, msg: "n2 addr"}}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, b []byte) {
		// Decode from a scratch copy so the mutate-after-return probe below
		// can scribble over it, mimicking a pooled frame buffer being
		// recycled (StartPooled) the moment the callback returns.
		reqBuf := bytes.Clone(b)
		req, err := decodeRequest(reqBuf)
		if err == nil {
			// Anything that decodes must re-encode and decode identically
			// at the header level.
			frame, err := appendRequest(nil, req)
			if err != nil {
				t.Fatalf("re-encode of valid request failed: %v", err)
			}
			// Aliasing probe: scribbling the input buffer must not change
			// the decoded request — every retained string and slice must be
			// a deep copy, or pooled reads would corrupt in-flight requests.
			for i := range reqBuf {
				reqBuf[i] ^= 0xff
			}
			frame2, err := appendRequest(nil, req)
			if err != nil || !bytes.Equal(frame, frame2) {
				t.Fatalf("decoded request aliases its input buffer (err=%v)", err)
			}
			req2, err := decodeRequest(frame)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if req2.op != req.op || req2.id != req.id || req2.space != req.space {
				t.Fatalf("round trip drifted: %+v vs %+v", req, req2)
			}
		} else if !errors.Is(err, ErrProtocol) {
			t.Fatalf("decodeRequest error %v does not wrap ErrProtocol", err)
		}
		respBuf := bytes.Clone(b)
		r1, err := decodeResponse(respBuf)
		if err != nil && !errors.Is(err, ErrProtocol) {
			t.Fatalf("decodeResponse error %v does not wrap ErrProtocol", err)
		}
		if err == nil {
			// Same aliasing probe on the response decoder: compare the
			// string-bearing fields against an independent decode of the
			// pristine bytes after scribbling the first decode's input.
			r2, err2 := decodeResponse(b)
			if err2 != nil {
				t.Fatalf("second decode of identical bytes failed: %v", err2)
			}
			for i := range respBuf {
				respBuf[i] ^= 0xff
			}
			if r1.message != r2.message {
				t.Fatal("decoded response message aliases its input buffer")
			}
			for i := range r1.tuple {
				s1, ok1 := r1.tuple[i].(string)
				s2, ok2 := r2.tuple[i].(string)
				if ok1 != ok2 || s1 != s2 {
					t.Fatal("decoded tuple string aliases its input buffer")
				}
			}
			for i := range r1.batch {
				if r1.batch[i] != r2.batch[i] {
					t.Fatal("decoded batch status aliases its input buffer")
				}
			}
		}
	})
}
