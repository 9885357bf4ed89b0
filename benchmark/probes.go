package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sio"
	"repro/internal/tspace"
)

// Micro-probes call one layer alone, through its exported functions, on the
// workload's own generated inputs. They run after the traced pass, on the
// workload's (by then idle) VM, and report per-call costs the spans and
// counters cannot see from outside.

// probeCore measures core.yield_ns (two resident threads on one VP yielding
// to each other) and core.block_resume_us (one park + one wake: two threads
// on one VP handing a turn back and forth through BlockUntil/WakeTCB, the
// calls every tuple-space wait is built from).
func probeCore(lp *layerPass, vm *core.VM) error {
	n := lp.env.pick(20000, 500)
	_, err := vm.Run(func(ctx *core.Context) ([]core.Value, error) {
		home := ctx.VP()

		var stop atomic.Bool
		peer := ctx.Fork(func(c *core.Context) ([]core.Value, error) {
			for !stop.Load() {
				c.Yield()
			}
			return nil, nil
		}, home, core.WithStealable(false))
		ctx.Yield() // the peer is resident from here on
		t0 := now()
		for i := 0; i < n; i++ {
			ctx.Yield()
		}
		dt := now() - t0
		stop.Store(true)
		ctx.Wait(peer)
		lp.out["core.yield_ns"] = float64(dt) / float64(2*n) // each of ours runs one of the peer's

		var turn atomic.Int64
		var peerTCB atomic.Pointer[core.TCB]
		root := ctx.TCB()
		peer = ctx.Fork(func(c *core.Context) ([]core.Value, error) {
			peerTCB.Store(c.TCB())
			for i := int64(0); i < int64(n); i++ {
				c.BlockUntil(func() bool { return turn.Load() == 2*i+1 })
				turn.Store(2*i + 2)
				core.WakeTCB(root)
			}
			return nil, nil
		}, home, core.WithStealable(false))
		for peerTCB.Load() == nil {
			ctx.Yield()
		}
		t0 = now()
		for i := int64(0); i < int64(n); i++ {
			turn.Store(2*i + 1)
			core.WakeTCB(peerTCB.Load())
			ctx.BlockUntil(func() bool { return turn.Load() == 2*i+2 })
		}
		dt = now() - t0
		ctx.Wait(peer)
		lp.out["core.block_resume_us"] = float64(dt) / float64(2*n) / 1e3 // two parks and two wakes per turn pair
		return nil, nil
	}, core.WithName("probe-core"))
	return err
}

// probeTSpace measures Put, Get-hit, Rd-hit and Try-miss on a fresh
// KindHash space holding `resident` tuples shaped like the workload's:
// {key(i), n}. With resident = 0 every tuple has its own key (depth ≤ 1);
// with resident = a burst all share one key, so Get and the miss scan the
// deep bin.
func probeTSpace(lp *layerPass, vm *core.VM, resident int, key func(i int) core.Value) error {
	const batch = 64
	rounds := lp.env.pick(200, 10)
	ts := tspace.New(tspace.KindHash, tspace.Config{})
	_, err := vm.Run(func(ctx *core.Context) ([]core.Value, error) {
		for i := 0; i < resident; i++ {
			if err := ts.Put(ctx, tspace.Tuple{key(i), int64(i)}); err != nil {
				return nil, err
			}
		}
		var put, get, rd, miss int64
		for r := 0; r < rounds; r++ {
			t0 := now()
			for i := 0; i < batch; i++ {
				if err := ts.Put(ctx, tspace.Tuple{key(resident + i), int64(resident + i)}); err != nil {
					return nil, err
				}
			}
			t1 := now()
			for i := 0; i < batch; i++ {
				if _, _, err := ts.Rd(ctx, tspace.Template{key(resident + i), tspace.F("n")}); err != nil {
					return nil, err
				}
			}
			t2 := now()
			for i := 0; i < batch; i++ {
				// same key, a value no tuple carries: the whole bin is scanned
				if _, _, err := ts.TryGet(ctx, tspace.Template{key(resident + i), int64(-7)}); !errors.Is(err, tspace.ErrNoMatch) {
					return nil, fmt.Errorf("try-miss probe matched: %v", err)
				}
			}
			t3 := now()
			for i := 0; i < batch; i++ {
				if _, _, err := ts.Get(ctx, tspace.Template{key(resident + i), tspace.F("n")}); err != nil {
					return nil, err
				}
			}
			t4 := now()
			put, rd, miss, get = put+t1-t0, rd+t2-t1, miss+t3-t2, get+t4-t3
		}
		per := float64(rounds * batch)
		lp.out["tspace.put_ns"] = float64(put) / per
		lp.out["tspace.rd_hit_ns"] = float64(rd) / per
		lp.out["tspace.try_miss_ns"] = float64(miss) / per
		lp.out["tspace.get_hit_ns"] = float64(get) / per
		if n := ts.Len(); n != resident {
			return nil, fmt.Errorf("tspace probe left %d tuples, want %d", n, resident)
		}
		return nil, nil
	}, core.WithName("probe-tspace"))
	return err
}

// codecCost is what probeCodec hands the latency budget: the codec's share
// of one round trip whose frames carry these bodies.
type codecCost struct {
	encodeNS, decodeNS float64 // summed over the bodies
	bytes              float64 // summed encoded size
}

// probeCodec measures AppendTuple/DecodeTuple (and AppendTemplate/
// DecodeTemplate) on the wire workload's own tuples and templates.
func probeCodec(lp *layerPass, tuples []tspace.Tuple, templates []tspace.Template) (codecCost, error) {
	reps := lp.env.pick(20000, 200)
	var cost codecCost
	var allocs uint64
	buf := make([]byte, 0, 1024)
	// body times reps encodes and reps decodes of one message body
	body := func(encode func(dst []byte) ([]byte, error), decode func(b []byte) error) error {
		enc, err := encode(nil)
		if err != nil {
			return err
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := now()
		for i := 0; i < reps; i++ {
			if buf, err = encode(buf[:0]); err != nil {
				return err
			}
		}
		t1 := now()
		for i := 0; i < reps; i++ {
			if err := decode(enc); err != nil {
				return err
			}
		}
		t2 := now()
		runtime.ReadMemStats(&ms1)
		cost.encodeNS += float64(t1-t0) / float64(reps)
		cost.decodeNS += float64(t2-t1) / float64(reps)
		cost.bytes += float64(len(enc))
		allocs += ms1.Mallocs - ms0.Mallocs
		return nil
	}
	for _, tup := range tuples {
		err := body(
			func(dst []byte) ([]byte, error) { return tspace.AppendTuple(dst, tup) },
			func(b []byte) error { _, _, err := tspace.DecodeTuple(b); return err })
		if err != nil {
			return cost, err
		}
	}
	for _, tpl := range templates {
		err := body(
			func(dst []byte) ([]byte, error) { return tspace.AppendTemplate(dst, tpl) },
			func(b []byte) error { _, _, err := tspace.DecodeTemplate(b); return err })
		if err != nil {
			return cost, err
		}
	}
	n := float64(len(tuples) + len(templates))
	lp.out["tspace.codec_encode_ns"] = cost.encodeNS / n
	lp.out["tspace.codec_decode_ns"] = cost.decodeNS / n
	lp.out["tspace.codec_allocs_per_op"] = float64(allocs) / float64(reps) / n // one op = encode + decode of one body
	lp.out["tspace.codec_bytes_per_tuple"] = cost.bytes / n
	return cost, nil
}

// probeFrameRT measures sio.frame_rt_us: one FrameConn frame of the
// workload's size written over a loopback TCP pair and one read back — two
// socket writes, two reads, two reader-goroutine wake-ups. It is the
// syscall floor under one request/response exchange.
func probeFrameRT(lp *layerPass, frameBytes int) error {
	n := lp.env.pick(5000, 100)
	ln, err := listenLoopback()
	if err != nil {
		return err
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	acc := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		acc <- accepted{c, err}
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	a := <-acc
	if a.err != nil {
		cc.Close()
		return a.err
	}
	client := sio.NewFrameConn(cc, 0, 0)
	server := sio.NewFrameConn(a.c, 0, 0)
	clientDone, serverDone := make(chan struct{}), make(chan struct{})
	back := make(chan struct{}, 1)
	server.Start(func(frame []byte, err error) {
		if err != nil {
			close(serverDone)
			return
		}
		server.WriteFrame(frame) //nolint:errcheck // a failed echo shows as a probe timeout
	})
	client.Start(func(_ []byte, err error) {
		if err != nil {
			close(clientDone)
			return
		}
		back <- struct{}{}
	})
	payload := make([]byte, max(frameBytes-sio.PrefixLen, 1))
	lats := make([]float64, 0, n)
	for i := 0; i < n && err == nil; i++ {
		t0 := now()
		if err = client.WriteFrame(payload); err != nil {
			break
		}
		select {
		case <-back:
			lats = append(lats, float64(now()-t0)/1e3)
		case <-time.After(5 * time.Second):
			err = errors.New("frame echo timed out")
		}
	}
	client.Close()
	server.Close()
	<-clientDone
	<-serverDone
	lp.out["sio.frame_rt_us"] = median(lats)
	lp.out["sio.frame_bytes"] = float64(frameBytes)
	return err
}
