package sio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

func framePair(t *testing.T, maxFrame uint32) (*FrameConn, *FrameConn) {
	t.Helper()
	a, b := net.Pipe()
	fa := NewFrameConn(a, maxFrame, time.Second)
	fb := NewFrameConn(b, maxFrame, time.Second)
	t.Cleanup(func() { fa.Close(); fb.Close() })
	return fa, fb
}

func TestFrameConnRoundTrip(t *testing.T) {
	fa, fb := framePair(t, 0)
	got := make(chan []byte, 4)
	errs := make(chan error, 1)
	fb.Start(func(frame []byte, err error) {
		if err != nil {
			errs <- err
			return
		}
		got <- frame
	})
	msgs := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte{7}, 1000)}
	for _, m := range msgs {
		if err := fa.WriteFrame(m); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for _, want := range msgs {
		select {
		case frame := <-got:
			if !bytes.Equal(frame, want) {
				t.Fatalf("frame = %q, want %q", frame, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("timed out waiting for frame")
		}
	}
	fa.Close()
	select {
	case err := <-errs:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("terminal err = %v, want EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no terminal error after close")
	}
	wantBytes := uint64(0)
	for _, m := range msgs {
		wantBytes += uint64(len(m)) + 4
	}
	if fb.BytesIn() != wantBytes || fa.BytesOut() != wantBytes {
		t.Fatalf("bytes in/out = %d/%d, want %d", fb.BytesIn(), fa.BytesOut(), wantBytes)
	}
}

func TestFrameConnOversizedFrame(t *testing.T) {
	fa, fb := framePair(t, 64)
	if err := fa.WriteFrame(bytes.Repeat([]byte{1}, 65)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write err = %v, want ErrFrameTooLarge", err)
	}
	// An oversized announcement from the peer kills the read loop.
	errs := make(chan error, 1)
	fb.Start(func(frame []byte, err error) {
		if err != nil {
			errs <- err
		}
	})
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<30)
	go fa.Conn().Write(hdr[:]) //nolint:errcheck
	select {
	case err := <-errs:
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("reader err = %v, want ErrFrameTooLarge", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader did not reject oversized frame")
	}
}

func TestFrameConnMidFrameEOF(t *testing.T) {
	fa, fb := framePair(t, 0)
	errs := make(chan error, 1)
	fb.Start(func(frame []byte, err error) {
		if err != nil {
			errs <- err
		}
	})
	// Announce 100 bytes, send 3, hang up: the reader sees EOF, not a
	// partial frame.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	go func() {
		fa.Conn().Write(hdr[:])          //nolint:errcheck
		fa.Conn().Write([]byte{1, 2, 3}) //nolint:errcheck
		fa.Close()                       // mid-frame hangup
	}()
	select {
	case err := <-errs:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("reader err = %v, want EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader did not notice hangup")
	}
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// TestPutBufRecyclesEveryFrameSize: a buffer grown for a frame beyond
// 64 KiB (a full BATCH frame is ~70 KB) goes back to the pool, and the next
// GetBuf on this goroutine hands out the same storage with no GC between.
// A buffer larger than any frame is left for the GC.
func TestPutBufRecyclesEveryFrameSize(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	// GetBuf empties this P's private pool slot, which PutBuf then fills.
	big := append(GetBuf(), make([]byte, 70<<10)...)
	PutBuf(big)
	if got := GetBuf(); cap(got) != cap(big) || &got[:1][0] != &big[0] {
		t.Fatalf("GetBuf after PutBuf of a %d-byte buffer returned a %d-byte one, not it", cap(big), cap(got))
	}
	huge := make([]byte, 0, PrefixLen+MaxFrame+1)
	PutBuf(huge)
	if got := GetBuf(); cap(got) > 0 && &got[:1][0] == &huge[:1][0] {
		t.Fatalf("a %d-byte buffer, larger than any frame, was recycled", cap(huge))
	}
}
