package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/scheme"
	"repro/internal/tspace"
)

// farm: ROADMAP's macro row — Scheme → vm → cluster → remote → sio → shard →
// tspace. Three in-process shards (1 VP each, cluster.SelfCheck route check
// on) and a 2-VP client VM running programs/farm.scm under the vm engine.
// One op is one farm round of farmTasks tasks: the master keyed-puts
// (id task n), four Scheme workers fan-out get (?id task ?n) — first wins,
// losers are cancelled and re-deposit — and keyed-put (id result n²), the
// master keyed-gets each result. cluster routing and fan-out dominate; vm is
// a small share.
type farm struct {
	shards []*node
	member *cluster.Membership
	m      *core.Machine
	vm     *core.VM
	in     *scheme.Interp
	out    bytes.Buffer
	text   string
	tasks  int
	want   int64 // Σ n² over the seeded task values
	log    io.Writer
}

const (
	farmShards  = 3
	farmWorkers = 4
	farmSpace   = "farm"
	probeSpace  = "probe"
)

func setupFarm(e *env) (_ instance, err error) {
	f := &farm{tasks: e.pick(128, 16), log: e.cfg.log}
	lns := make([]net.Listener, 0, farmShards) // listeners no shard owns yet
	defer func() {
		if err != nil {
			for _, ln := range lns {
				ln.Close()
			}
			f.shutdown()
		}
	}()

	var spec []string
	for i := 0; i < farmShards; i++ {
		ln, err := listenLoopback()
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		spec = append(spec, fmt.Sprintf("s%d=%s", i, ln.Addr()))
	}
	if f.member, err = cluster.ParseSpec(strings.Join(spec, ",")); err != nil {
		return nil, err
	}
	for i := 0; i < farmShards; i++ {
		id := fmt.Sprintf("s%d", i)
		check, err := cluster.SelfCheck(f.member, id, 0)
		if err != nil {
			return nil, err
		}
		ln := lns[0]
		lns = lns[1:] // startNode owns it from here, also when it fails
		n, err := startNode(id, 1, remote.ServerConfig{RouteCheck: check}, ln)
		if err != nil {
			return nil, err
		}
		f.shards = append(f.shards, n)
	}

	// seeded inputs: distinct task ids (they key the routes) and task values
	var tasks strings.Builder
	seen := map[int64]bool{}
	for len(seen) < f.tasks {
		id, n := 1+e.rng.Int63n(1<<30), e.rng.Int63n(1<<15)
		if seen[id] {
			continue
		}
		seen[id] = true
		fmt.Fprintf(&tasks, "(%d %d) ", id, n)
		f.want += n * n
	}
	p, err := programFS.ReadFile("programs/farm.scm")
	if err != nil {
		return nil, err
	}
	f.text = fmt.Sprintf("(define *farm-spec* \"cluster:%s\")\n(define *farm-workers* %d)\n(define *farm-tasks* '(%s))\n%s",
		strings.Join(spec, ","), farmWorkers, tasks.String(), p)

	f.m = core.NewMachine(core.MachineConfig{Processors: 2})
	if f.vm, err = f.m.NewVM(core.VMConfig{Name: "cluster_farm", VPs: 2}); err != nil {
		return nil, err
	}
	f.in = scheme.New(f.vm, scheme.WithOutput(&f.out))
	if _, err := f.in.EvalString(f.text); err != nil {
		return nil, fmt.Errorf("farm.scm: %w", err)
	}
	return f, nil
}

// shutdown stops the shards, then hangs the Scheme program's cluster client
// up, then stops the client machine. The shards go first: a fan-out loser
// whose CANCEL the shard missed stays parked there with nothing left to
// match, and the client's Close would wait for it forever; a shard's
// Shutdown withdraws it.
func (f *farm) shutdown() {
	f.disconnect()
	if f.m != nil {
		f.m.Shutdown()
	}
}

// disconnect stops the shards and hangs the client up. The hang-up runs on
// this goroutine, not on a STING thread: Close waits for the cancelled
// branches, which need the client VM's VPs to drain.
func (f *farm) disconnect() {
	for i := len(f.shards) - 1; i >= 0; i-- {
		f.shards[i].shutdown()
	}
	f.shards = nil
	if f.in != nil {
		if hangUp, ok := f.in.Global().Lookup("remote-close"); ok {
			f.in.Apply(nil, hangUp, nil) //nolint:errcheck // closing a closed fabric is not an error worth reporting
		}
	}
}

func (f *farm) shape() (int, int) { return 1, 1 }

// depth sums what the shards hold in the named space.
func (f *farm) depth(space string) int {
	n := 0
	for _, sh := range f.shards {
		n += sh.srv.Registry().OpenDefault(space).Len()
	}
	return n
}

func (f *farm) run(ph *phase) error {
	rec, tr := ph.recs[0], ph.tr
	for op := int64(0); ph.live(); op++ {
		t0 := now()
		sOp := tr.begin(spOp, noSpan, op, 0)
		v, err := f.in.EvalString("(farm-round *farm-tasks*)")
		tr.end(sOp)
		if err != nil {
			ph.fail("cluster_farm round %d: %v", op, err)
			return nil
		}
		if v != f.want {
			ph.fail("cluster_farm round %d: Σn² = %v, want %d", op, scheme.WriteString(v), f.want)
			return nil
		}
		rec.add(t0)
		if !ph.untidied {
			for _, sh := range f.shards {
				sh.tidy()
			}
			resetGroups(f.vm.RootGroup())
		}
	}
	// Every result is in, so every task was taken and every loser's
	// re-deposit was taken again: the shards hold nothing.
	if n := f.depth(farmSpace); n != 0 && ph.failed.Load() == 0 {
		ph.fail("cluster_farm: shards hold %d tuples after the last round, want 0", n)
	}
	return nil
}

func (f *farm) counters() metrics {
	c := vmEngineCounters()
	for i, sh := range f.shards {
		sh.counters(fmt.Sprintf("s%d.", i), c)
	}
	return c
}

// shardSum adds a counter's delta over the shards.
func (f *farm) shardSum(lp *layerPass, name string) float64 {
	var sum float64
	for i := range f.shards {
		sum += lp.delta[fmt.Sprintf("s%d.%s", i, name)]
	}
	return sum
}

func (f *farm) layers(lp *layerPass) error {
	vmCounterMetrics(lp)
	tasks := float64(lp.traced.ops) * float64(f.tasks)
	lp.out["cluster.task_us"] = lp.tr.medianUS(spOp) / float64(f.tasks)
	// Seen from the shards: the master issues one keyed get per task, every
	// other get is one branch of a worker's fan-out over all shards; every
	// put beyond task + result is a loser's re-deposit.
	lp.out["cluster.fanouts_per_task"] = (f.shardSum(lp, "op.get") - tasks) / farmShards / tasks
	lp.out["cluster.cancels_per_task"] = f.shardSum(lp, "op.cancel") / tasks
	lp.out["cluster.redeposits"] = f.shardSum(lp, "op.put") - 2*tasks
	var maxOps float64
	for i := range f.shards {
		maxOps = max(maxOps, lp.delta[fmt.Sprintf("s%d.ops", i)])
	}
	lp.out["cluster.shard_skew"] = maxOps / (f.shardSum(lp, "ops") / farmShards)
	lp.out["remote.timeouts"] = f.shardSum(lp, "timeouts")
	lp.out["remote.proto_errors"] = f.shardSum(lp, "proto_errors")

	if err := f.probeRouting(lp); err != nil {
		return err
	}
	lp.out["cluster.failovers"] += f.shardSum(lp, "redirects")
	return probeSchemeFrontEnd(lp, f.vm, []string{f.text})
}

// probeRouting calls the cluster layer alone, through the Go API, from a
// STING thread on the client VM: keyed put, keyed get, fan-out get on the
// workload's own task shape — and the same put through a plain remote
// client to the owning shard, so routing's own cost is the difference.
func (f *farm) probeRouting(lp *layerPass) error {
	n := lp.env.pick(300, 10)
	cc := cluster.Open(f.member, cluster.Config{})
	defer cc.Close() //nolint:errcheck
	sp := cc.Space(probeSpace)
	id := int64(424242)
	key, _ := tspace.HashKey(probeSpace, id, 3)
	tr := lp.tr
	direct, err := remote.Dial(nil, f.member.Owner(key).Addr, remote.DialConfig{})
	if err != nil {
		return err
	}
	defer direct.Close() //nolint:errcheck
	dsp := direct.Space(probeSpace)
	var put, get, fan, plain []float64
	for i := int64(0); i < int64(n); i++ {
		_, err := f.vm.Run(func(ctx *core.Context) ([]core.Value, error) {
			tup := tspace.Tuple{id, "task", i}
			t0 := now()
			if err := sp.Put(ctx, tup); err != nil {
				return nil, err
			}
			t1 := now()
			if _, _, err := sp.Get(ctx, tspace.Template{id, "task", tspace.F("n")}); err != nil {
				return nil, err
			}
			t2 := now()
			if err := dsp.Put(ctx, tup); err != nil {
				return nil, err
			}
			t3 := now()
			if _, _, err := sp.Get(ctx, tspace.Template{tspace.F("id"), "task", tspace.F("n")}); err != nil {
				return nil, err
			}
			t4 := now()
			tr.add(spKeyedPut, noSpan, i, 1, t0, t1)
			tr.add(spKeyedGet, noSpan, i, 1, t1, t2)
			tr.add(spClientPut, noSpan, i, 1, t2, t3)
			tr.add(spFanoutGet, noSpan, i, 1, t3, t4)
			put, get = append(put, float64(t1-t0)/1e3), append(get, float64(t2-t1)/1e3)
			plain, fan = append(plain, float64(t3-t2)/1e3), append(fan, float64(t4-t3)/1e3)
			return nil, nil
		}, core.WithName("probe-cluster"))
		if err != nil {
			return err
		}
		// Losers re-deposit before the next fan-out looks. Waited for here,
		// off the VM: on a STING thread the wait would hold the very VP the
		// cancelled branches need to drain.
		cc.Quiesce()
	}
	lp.out["cluster.keyed_put_us"] = median(put)
	lp.out["cluster.keyed_get_us"] = median(get)
	lp.out["cluster.fanout_get_us"] = median(fan)
	lp.out["remote.client_put_us"] = median(plain)
	lp.out["cluster.route_overhead_us"] = median(put) - median(plain)
	errs, _ := collected(cc.Collector(), "sting_cluster_shard_errors_total")
	redirects, _ := collected(cc.Collector(), "sting_cluster_shard_redirects_total")
	lp.out["cluster.failovers"] = errs + redirects
	if d := f.depth(probeSpace); d != 0 {
		return fmt.Errorf("cluster probe left %d tuples on the shards", d)
	}
	return nil
}

func (f *farm) close() error {
	_, err := f.in.EvalString("(farm-retire)")
	if err == nil {
		if n := f.depth(farmSpace); n != 0 {
			err = fmt.Errorf("cluster_farm: shards hold %d tuples at the end, want 0 (a tuple was lost or duplicated across cancel/re-deposit)", n)
		}
	}
	// the last fan-outs' losers are being cancelled as the workers retire;
	// one still parked half a second later was never told
	stray := 0
	for waited := time.Duration(0); waited <= 500*time.Millisecond; waited += 10 * time.Millisecond {
		stray = 0
		for _, sh := range f.shards {
			stray += sh.srv.Registry().Waiters()
		}
		if stray == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if stray > 0 {
		fmt.Fprintf(f.log, "  note: %d fan-out waiters still parked on the shards after every worker retired (a CANCEL was missed; README, observations)\n", stray)
	}
	f.disconnect()
	if live := liveThreads(f.vm); live != 0 && err == nil {
		err = fmt.Errorf("cluster_farm: %d client threads still live at shutdown", live)
	}
	f.shutdown()
	return err
}
