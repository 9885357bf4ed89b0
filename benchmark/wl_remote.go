package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/tspace"
)

// node is one in-process fabric server: machine, VM, remote.Server and its
// listener on 127.0.0.1:0 — never a stingd child.
type node struct {
	m      *core.Machine
	vm     *core.VM
	srv    *remote.Server
	addr   string
	served sync.WaitGroup // the Serve goroutine
}

func startNode(name string, vps int, cfg remote.ServerConfig, ln net.Listener) (*node, error) {
	n := &node{m: core.NewMachine(core.MachineConfig{Processors: vps})}
	vm, err := n.m.NewVM(core.VMConfig{Name: name, VPs: vps})
	if err != nil {
		ln.Close()
		n.m.Shutdown()
		return nil, err
	}
	n.vm = vm
	n.srv = remote.NewServer(vm, cfg)
	n.addr = ln.Addr().String()
	n.served.Add(1)
	go func() {
		defer n.served.Done()
		n.srv.Serve(ln) //nolint:errcheck // ends with the listener at Shutdown
	}()
	return n, nil
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// tidy drops the VM's records of determined threads. The substrate keeps
// every determined thread — each served request, with its thunk and so its
// decoded frame — in its group's member table until the group is reset
// (README, observation 3). No stingd does this. Left alone, a server's cost
// per op follows how long it has been up (remote_stream: 2 GiB and a third
// of the throughput gone after 12 s), so the end-to-end rows would measure
// the run's length; they are taken with the records dropped, and the traced
// run's as-deployed pass reports what that hides (core.untidied_*).
func (n *node) tidy() { resetGroups(n.vm.RootGroup()) }

func resetGroups(g *core.Group) {
	g.Reset()
	for _, sub := range g.Subgroups() {
		resetGroups(sub)
	}
}

func (n *node) shutdown() {
	n.srv.Shutdown()
	n.served.Wait()
	n.m.Shutdown()
}

// counters flattens the server's counters under prefix.
func (n *node) counters(prefix string, c metrics) {
	s := n.srv.Stats()
	for op, v := range s.Ops {
		c[prefix+"op."+op] = float64(v)
	}
	c[prefix+"ops"] = float64(s.OpsTotal())
	c[prefix+"bytes_in"] = float64(s.BytesIn)
	c[prefix+"bytes_out"] = float64(s.BytesOut)
	c[prefix+"timeouts"] = float64(s.Timeouts)
	c[prefix+"proto_errors"] = float64(s.ProtoErrors)
	c[prefix+"canceled"] = float64(s.Canceled)
	c[prefix+"redirects"] = float64(s.Redirects)
	c[prefix+"batch_puts"] = float64(s.BatchPuts)
}

// collected sums the named counter over a collector's samples, and returns
// the first histogram of that name.
func collected(c obs.Collector, name string) (sum float64, hist *obs.HistogramSnapshot) {
	for _, m := range c.Collect() {
		if m.Name == name {
			sum += m.Value
			if hist == nil {
				hist = m.Hist
			}
		}
	}
	return sum, hist
}

// resolvedMedian is the named histogram's median — or its mean when the
// median lies beyond the last finite bucket, where Quantile clamps. The
// server's batch-size and pipeline-depth histograms use the latency buckets,
// which end at 10.
func resolvedMedian(c obs.Collector, name string) float64 {
	_, h := collected(c, name)
	if h == nil || h.Count == 0 {
		return 0
	}
	if q := h.Quantile(0.5); len(h.Bounds) == 0 || q < h.Bounds[len(h.Bounds)-1] {
		return q
	}
	return h.Sum / float64(h.Count)
}

// wire is the server and the C client connections both remote workloads use.
type wire struct {
	n       *node
	name    string
	clients []*remote.Client
}

// space names connection p's tuple space: one each, so an end-of-window
// sweep for strays sees only its own connection's tuples.
func (w *wire) space(p int) string { return fmt.Sprintf("%s.%d", w.name, p) }

func newWire(e *env, name string, dial remote.DialConfig) (*wire, error) {
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	n, err := startNode(name, 2, remote.ServerConfig{}, ln)
	if err != nil {
		return nil, err
	}
	w := &wire{n: n, name: name}
	for i := 0; i < e.drivers; i++ {
		c, err := remote.Dial(nil, n.addr, dial)
		if err != nil {
			w.shutdown()
			return nil, err
		}
		w.clients = append(w.clients, c)
	}
	return w, nil
}

func (w *wire) shutdown() {
	for _, c := range w.clients {
		c.Close() //nolint:errcheck // nothing in flight at teardown
	}
	w.n.shutdown()
}

func (w *wire) counters() metrics {
	c := vmCounters(w.n.vm)
	w.n.counters("", c)
	for _, cl := range w.clients {
		for _, m := range cl.Collector().Collect() {
			switch m.Name {
			case "sting_remote_client_op_retries_total":
				c["client_retries"] += m.Value
			case "sting_remote_client_timeouts_total":
				c["client_timeouts"] += m.Value
			}
		}
	}
	return c
}

func (w *wire) remoteCounterMetrics(lp *layerPass) {
	coreCounterMetrics(lp)
	lp.out["remote.bytes_in_per_op"] = lp.perOp("bytes_in")
	lp.out["remote.bytes_out_per_op"] = lp.perOp("bytes_out")
	lp.out["remote.retries"] = lp.delta["client_retries"]
	lp.out["remote.timeouts"] = lp.delta["timeouts"] + lp.delta["client_timeouts"]
	lp.out["remote.proto_errors"] = lp.delta["proto_errors"]
}

func (w *wire) close() error {
	depth := 0
	for p := range w.clients {
		depth += w.n.srv.Registry().OpenDefault(w.space(p)).Len()
	}
	live := liveThreads(w.n.vm)
	w.shutdown()
	if depth != 0 {
		return fmt.Errorf("%s: server spaces hold %d tuples at the end, want 0", w.name, depth)
	}
	if live != 0 {
		return fmt.Errorf("%s: %d server threads still live at shutdown", w.name, live)
	}
	return nil
}

// ---------------------------------------------------------------------------

// rtt: one in-process remote.Server (2 VPs), C plain connections over
// loopback TCP (link rates are not claimed). One op is one round trip:
// client Put ("ping", p, i) — the smallest tuples, so per-message cost
// dominates — then blocking Get ("pong", p, i), answered by a server-side
// STING echo thread. tspace codec + sio + remote dispatch + one park/wake
// each way: the latency-budget workload.
type rtt struct {
	*wire
	base []int64 // seeded first sequence number per connection
}

func setupRTT(e *env) (instance, error) {
	w, err := newWire(e, "remote_rtt", remote.DialConfig{})
	if err != nil {
		return nil, err
	}
	r := &rtt{wire: w}
	for range w.clients {
		r.base = append(r.base, e.rng.Int63n(1<<40))
	}
	return r, nil
}

func (r *rtt) shape() (int, int) { return len(r.clients), 1 }

// rttLink carries one in-flight op's timestamps between the client goroutine
// and the echo thread (window 1, so one slot per connection is enough).
type rttLink struct {
	putStart atomic.Int64
	echoDone atomic.Int64
	opSpan   atomic.Int32
}

func (r *rtt) run(ph *phase) error {
	tr := ph.tr
	before := r.n.srv.Stats()
	links := make([]rttLink, len(r.clients))

	echoes := make([]*core.Thread, len(r.clients))
	for p := range echoes {
		link, lane := &links[p], len(r.clients)+p
		ts := r.n.srv.Registry().OpenDefault(r.space(p))
		echoes[p] = r.n.vm.Spawn(func(ctx *core.Context) ([]core.Value, error) {
			for {
				_, b, err := ts.Get(ctx, tspace.Template{"ping", int64(p), tspace.F("n")})
				got := now()
				if err != nil {
					return nil, err
				}
				n := b["n"].(int64)
				if n < 0 {
					return nil, nil
				}
				parent := spanID(link.opSpan.Load())
				tr.add(spReqPath, parent, n, lane, link.putStart.Load(), got)
				t0 := now()
				err = ts.Put(ctx, tspace.Tuple{"pong", int64(p), n})
				t1 := now()
				link.echoDone.Store(t1)
				tr.add(spEchoPut, parent, n, lane, t0, t1)
				if err != nil {
					return nil, err
				}
			}
		}, core.WithName("rtt-echo"))
	}

	var wg sync.WaitGroup
	for p, c := range r.clients {
		wg.Add(1)
		go func(p int, sp *remote.Space) {
			defer wg.Done()
			defer sp.Put(nil, tspace.Tuple{"ping", int64(p), int64(-1)}) //nolint:errcheck // retire the echo
			rec, link, seq := ph.recs[p], &links[p], r.base[p]
			pong := sp.Deadline(ph.timeout)
			for ph.live() {
				seq++
				t0 := now()
				sOp := tr.begin(spOp, noSpan, seq, p)
				link.opSpan.Store(int32(sOp))
				link.putStart.Store(t0)
				s := tr.begin(spClientPut, sOp, seq, p)
				err := sp.Put(nil, tspace.Tuple{"ping", int64(p), seq})
				tr.end(s)
				if err != nil {
					ph.fail("remote_rtt conn %d: put: %v", p, err)
					return
				}
				s = tr.begin(spClientGet, sOp, seq, p)
				tup, _, err := pong.Get(nil, tspace.Template{"pong", int64(p), seq})
				t1 := now()
				tr.end(s)
				if err != nil {
					ph.fail("remote_rtt conn %d: get: %v", p, err)
					return
				}
				tr.add(spRespPath, sOp, seq, p, link.echoDone.Load(), t1)
				tr.end(sOp)
				if len(tup) != 3 || tup[0] != "pong" || tup[1] != int64(p) || tup[2] != seq {
					ph.fail("remote_rtt conn %d: pong %v, want [pong %d %d]", p, tup, p, seq)
					return
				}
				rec.add(t0)
				if seq%1024 == 0 && !ph.untidied {
					r.n.tidy()
				}
			}
		}(p, c.Space(r.space(p)))
	}
	wg.Wait()
	var first error
	for _, t := range echoes {
		if _, err := core.JoinThread(t); err != nil && first == nil {
			first = err
		}
	}
	if ph.failed.Load() == 0 && first == nil {
		var ops uint64
		for _, rec := range ph.recs {
			ops += uint64(len(rec.ends))
		}
		after := r.n.srv.Stats()
		puts, gets := after.Ops["put"]-before.Ops["put"], after.Ops["get"]-before.Ops["get"]
		if want := ops + uint64(len(r.clients)); puts != want || gets != ops {
			ph.fail("remote_rtt: server served %d puts and %d gets for %d round trips (want %d and %d)", puts, gets, ops, want, ops)
		}
	}
	return first
}

func (r *rtt) layers(lp *layerPass) error {
	r.remoteCounterMetrics(lp)
	tr := lp.tr
	lp.out["remote.client_put_us"] = tr.medianUS(spClientPut)
	lp.out["remote.client_get_us"] = tr.medianUS(spClientGet)
	lp.out["remote.req_path_us"] = tr.medianUS(spReqPath)
	lp.out["remote.resp_path_us"] = tr.medianUS(spRespPath)
	lp.out["remote.echo_put_us"] = tr.medianUS(spEchoPut)
	if ls, ok := r.n.srv.Stats().OpLatency["get"]; ok {
		lp.out["remote.server_op_p50_us"] = ls.P50 * 1e6
		lp.out["remote.server_op_p99_us"] = ls.P99 * 1e6
	}

	// The floors under one round trip, each measured alone on this
	// workload's own tuples: 3 bodies through the codec (ping tuple, pong
	// template, pong tuple), 2 frame exchanges, 2 deposits and 2 takes at
	// depth ≤ 1, and the parks the server VM counted per op.
	p, seq := int64(0), r.base[0]
	codec, err := probeCodec(lp,
		[]tspace.Tuple{{"ping", p, seq}, {"pong", p, seq}},
		[]tspace.Template{{"pong", p, seq}})
	if err != nil {
		return err
	}
	frame := int(lp.perOp("bytes_in")+lp.perOp("bytes_out")) / 4
	if err := probeFrameRT(lp, frame); err != nil {
		return err
	}
	if err := probeCore(lp, r.n.vm); err != nil {
		return err
	}
	if err := probeTSpace(lp, r.n.vm, 0, func(i int) core.Value { return int64(1000 + i) }); err != nil {
		return err
	}
	rttUS := lp.traced.e2e["op_p50_us"]
	if lp.untraced != nil {
		rttUS = lp.untraced.e2e["op_p50_us"]
	}
	floors := (codec.encodeNS+codec.decodeNS)/1e3 +
		2*lp.out["sio.frame_rt_us"] +
		2*(lp.out["tspace.put_ns"]+lp.out["tspace.get_hit_ns"])/1e3 +
		lp.out["core.blocks_per_op"]*lp.out["core.block_resume_us"]
	// what is left is the dispatch/schedule share not yet attributable from
	// outside: floors + residual = RTT p50 by construction
	lp.out["remote.residual_us"] = rttUS - floors
	return nil
}

// ---------------------------------------------------------------------------

// stream: the same server, C connections with the async+batch DialConfig.
// One op is one acknowledged window: streamWindow asynchronous batched Puts
// of 256-byte-payload tuples, then a Get of the ack a server-side drainer
// thread emits after consuming the whole window. Throughput, group commit
// and pooled frames: the remote layer used the other way.
//
// Each tuple is keyed by its sequence id, (seq, "s", payload), and the
// drainer takes the ids in order, so the space's bins stay shallow. Keyed by
// one tag they would all share one bin and the cost of a take would follow
// the bin's depth at that moment — tuple_backlog's subject, and noise here.
type stream struct {
	*wire
	window   int
	payloads []string // seeded 256-byte payloads, cycled by sequence id
}

const payloadBytes = 256

func setupStream(e *env) (instance, error) {
	w, err := newWire(e, "remote_stream", remote.DialConfig{Batch: true})
	if err != nil {
		return nil, err
	}
	s := &stream{wire: w, window: e.pick(4096, 256)}
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	for i := 0; i < 64; i++ {
		b := make([]byte, payloadBytes)
		for j := range b {
			b[j] = alphabet[e.rng.Intn(len(alphabet))]
		}
		s.payloads = append(s.payloads, string(b))
	}
	return s, nil
}

func (s *stream) shape() (int, int) { return len(s.clients), 1 }

func (s *stream) payload(seq int64) string { return s.payloads[seq%int64(len(s.payloads))] }

func (s *stream) run(ph *phase) error {
	tr := ph.tr
	W := int64(s.window)

	// A drainer takes its connection's sequence ids in order and acks each
	// full window with how many it took and how many payloads were damaged.
	// The pass's end withdraws it from its Get through the cancel token.
	stopDrain := tspace.NewCancelToken()
	drainers := make([]*core.Thread, len(s.clients))
	for p := range drainers {
		lane := len(s.clients) + p
		ts := s.n.srv.Registry().OpenDefault(s.space(p))
		drainers[p] = s.n.vm.Spawn(func(ctx *core.Context) ([]core.Value, error) {
			var err error
			tspace.WithCancel(ctx, stopDrain, func() {
				for w := int64(0); err == nil; w++ {
					var count, bad int64
					sp := noSpan
					for ; count < W && err == nil; count++ {
						seq := w*W + count
						var b tspace.Bindings
						if _, b, err = ts.Get(ctx, tspace.Template{seq, "s", tspace.F("payload")}); err != nil {
							break
						}
						if count == 0 {
							sp = tr.begin(spStreamDrain, noSpan, w, lane)
						}
						if b["payload"] != s.payload(seq) {
							bad++
						}
					}
					tr.end(sp)
					if err == nil {
						err = ts.Put(ctx, tspace.Tuple{"ack", w, count, bad})
					}
				}
			})
			if stopDrain.Canceled() {
				err = nil
			}
			return nil, err
		}, core.WithName("stream-drainer"))
	}

	var wg sync.WaitGroup
	for p, c := range s.clients {
		wg.Add(1)
		go func(p int, sp *remote.Space) {
			defer wg.Done()
			rec := ph.recs[p]
			bounded := sp.Deadline(ph.timeout)
			pend := make([]*remote.PendingPut, 0, W+1)
			for w := int64(0); ph.live(); w++ {
				t0 := now()
				sOp := tr.begin(spOp, noSpan, w, p)
				sp1 := tr.begin(spStreamEnqueue, sOp, w, p)
				pend = pend[:0]
				for j := int64(0); j < W; j++ {
					seq := w*W + j
					tup := tspace.Tuple{seq, "s", s.payload(seq)}
					pp, err := sp.PutAsync(nil, tup)
					if err == nil && ph.fault == "dup-put" && seq == 7 {
						pend = append(pend, pp)
						pp, err = sp.PutAsync(nil, tup) // negative control: sent twice
					}
					if err != nil {
						ph.fail("remote_stream conn %d: put %d: %v", p, seq, err)
						return
					}
					pend = append(pend, pp)
				}
				tr.end(sp1)
				sp1 = tr.begin(spStreamAcks, sOp, w, p)
				for _, pp := range pend {
					if err := pp.Wait(nil); err != nil {
						ph.fail("remote_stream conn %d: put ack: %v", p, err)
						return
					}
				}
				tr.end(sp1)
				sp1 = tr.begin(spStreamGetAck, sOp, w, p)
				_, b, err := bounded.Get(nil, tspace.Template{"ack", w, tspace.F("count"), tspace.F("bad")})
				tr.end(sp1)
				tr.end(sOp)
				if err != nil {
					ph.fail("remote_stream conn %d window %d: ack: %v", p, w, err)
					return
				}
				// every Put is acknowledged and the window drained: a stream
				// tuple still in the space was deposited twice
				stray, _, err := sp.TryGet(nil, tspace.Template{tspace.F("seq"), "s", tspace.F("payload")})
				if !errors.Is(err, tspace.ErrNoMatch) {
					ph.fail("remote_stream conn %d window %d: stray tuple %v after the window drained (err %v): a Put was duplicated", p, w, stray[:min(len(stray), 2)], err)
					return
				}
				if b["count"] != W || b["bad"] != int64(0) {
					ph.fail("remote_stream conn %d window %d: drained %v tuples, %v damaged; sent %d", p, w, b["count"], b["bad"], W)
					return
				}
				rec.add(t0)
				if !ph.untidied {
					s.n.tidy()
				}
			}
		}(p, c.Space(s.space(p)))
	}
	wg.Wait()
	stopDrain.Cancel(nil)
	var first error
	for _, t := range drainers {
		if _, err := core.JoinThread(t); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *stream) layers(lp *layerPass) error {
	s.remoteCounterMetrics(lp)
	lp.out["remote.put_us"] = lp.tr.medianUS(spOp) / float64(s.window)
	lp.out["remote.batches_per_window"] = lp.perOp("op.batch")
	sc := remote.ServerCollector{Server: s.n.srv}
	lp.out["remote.batch_size_p50"] = resolvedMedian(sc, "sting_remote_batch_size")
	lp.out["remote.pipeline_depth_p50"] = resolvedMedian(sc, "sting_remote_pipeline_depth")
	if _, err := probeCodec(lp, []tspace.Tuple{{int64(7), "s", s.payload(7)}}, nil); err != nil {
		return err
	}
	frames := lp.delta["op.batch"] + lp.delta["op.get"] + lp.delta["op.put"] + lp.delta["op.tryget"]
	return probeFrameRT(lp, int(lp.delta["bytes_in"]/max(frames, 1)))
}
