// Command stingd is the tuple-space fabric daemon: it serves named tuple
// spaces over TCP so separate processes coordinate through STING's
// content-addressable synchronizing memory. A request that cannot block is
// answered on its connection's reader; a Get/Rd that must wait runs as a
// STING thread on one VM and parks through the substrate's block/wakeup
// machinery, not on an OS thread.
//
// Usage:
//
//	stingd -addr :7734                      serve (Ctrl-C drains gracefully)
//	stingd -spaces jobs=hash,done=queue     pre-create spaces by representation
//	stingd -vps 8 -procs 4                  size the serving VM
//	stingd -stats-every 10s                 print the stats (Prometheus text) periodically
//	stingd -http :9090                      serve /metrics, /healthz, /readyz,
//	                                        /debug/trace, /debug/spans, /debug/diag
//	stingd -diag-slo 5s                     report waiters parked past 5s as
//	                                        stalled at /debug/diag; kill -QUIT
//	                                        dumps the flight recorder to stderr
//	stingd -cluster nodes.json -node n1     join a sharded cluster as node n1:
//	                                        keyed ops that belong to another
//	                                        shard are answered with a typed
//	                                        redirect naming the owner
//	stingd -snapshot state.gob              restore passive tuples on boot,
//	                                        write them back on graceful drain
//	stingd -addr host:7734 -dump-stats      client mode: fetch and print a
//	                                        server's stats (Prometheus text), then exit
//
// Spaces not pre-created are opened on first use with the hash
// representation (Linda-style implicit creation).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/remote"
	"repro/internal/tspace"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7734", "listen (or, with -dump-stats, dial) address")
		vps         = flag.Int("vps", 0, "virtual processors (default: one per physical processor)")
		procs       = flag.Int("procs", 0, "physical processors (default GOMAXPROCS)")
		spaces      = flag.String("spaces", "", "pre-created spaces, name=kind comma-separated (kinds: hash,bag,set,queue,vector,shared-variable,semaphore)")
		statsEvery  = flag.Duration("stats-every", 0, "print server stats at this interval")
		dumpStats   = flag.Bool("dump-stats", false, "dial -addr, print its stats snapshot, exit")
		httpAddr    = flag.String("http", "", "serve /metrics, /healthz, /debug/trace, /debug/spans on this address (empty: off)")
		pprofOn     = flag.Bool("pprof", false, "expose /debug/pprof/ on the -http address")
		traceOut    = flag.String("trace-out", "", "write finished spans (JSON dump) here on graceful drain")
		clusterSpec = flag.String("cluster", "", "cluster membership: nodes.json path or \"id=addr,…\" spec")
		nodeID      = flag.String("node", "", "this daemon's node id within -cluster (default: the node whose addr matches -addr)")
		snapshot    = flag.String("snapshot", "", "persist passive tuples here: restored on boot, written on graceful drain")
		diagOn      = flag.Bool("diag", true, "run the always-on runtime diagnoser (stall sampler, hot-key profiler, flight recorder)")
		diagSample  = flag.Duration("diag-sample", time.Second, "stall-sampler period")
		diagSLO     = flag.Duration("diag-slo", 30*time.Second, "parked age past which a waiter is reported as stalled")
		diagWatch   = flag.Duration("diag-watchdog", 10*time.Second, "scheduler-watchdog heartbeat interval (0: off)")
		diagTopK    = flag.Int("diag-topk", 10, "hot keys reported per space at /debug/diag")
	)
	flag.Parse()

	if *dumpStats {
		os.Exit(runDumpStats(*addr))
	}
	os.Exit(runServer(serverOpts{
		addr:       *addr,
		httpAddr:   *httpAddr,
		vps:        *vps,
		procs:      *procs,
		spaces:     *spaces,
		statsEvery: *statsEvery,
		cluster:    *clusterSpec,
		nodeID:     *nodeID,
		snapshot:   *snapshot,
		pprof:      *pprofOn,
		traceOut:   *traceOut,
		diag:       *diagOn,
		diagSample: *diagSample,
		diagSLO:    *diagSLO,
		diagWatch:  *diagWatch,
		diagTopK:   *diagTopK,
	}))
}

// serverOpts carries the serving-mode flag set.
type serverOpts struct {
	addr, httpAddr, spaces string
	cluster, nodeID        string
	snapshot               string
	traceOut               string
	pprof                  bool
	vps, procs             int
	statsEvery             time.Duration
	diag                   bool
	diagSample, diagSLO    time.Duration
	diagWatch              time.Duration
	diagTopK               int
}

// runDumpStats is the client mode: one STATS round trip, printed as the
// Prometheus text the server rendered.
func runDumpStats(addr string) int {
	c, err := remote.Dial(nil, addr, remote.DialConfig{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stingd:", err)
		return 1
	}
	defer c.Close() //nolint:errcheck
	ms, err := c.Stats(nil)
	if err == nil {
		err = obs.WritePrometheus(os.Stdout, ms)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stingd:", err)
		return 1
	}
	return 0
}

func runServer(opts serverOpts) int {
	reg := tspace.NewRegistry(tspace.KindHash, tspace.Config{})
	if err := preopenSpaces(reg, opts.spaces); err != nil {
		fmt.Fprintln(os.Stderr, "stingd:", err)
		return 2
	}

	m := core.NewMachine(core.MachineConfig{Processors: opts.procs})
	defer m.Shutdown()
	vm, err := m.NewVM(core.VMConfig{Name: "stingd", VPs: opts.vps})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stingd:", err)
		return 1
	}

	if opts.snapshot != "" {
		tuples, spaces, err := restoreSnapshot(vm, reg, opts.snapshot)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stingd: snapshot restore:", err)
			return 1
		}
		if spaces > 0 {
			fmt.Printf("stingd: restored %d tuples into %d spaces from %s\n", tuples, spaces, opts.snapshot)
		}
	}

	nodeName := "stingd"
	scfg := remote.ServerConfig{Registry: reg}
	if opts.cluster != "" {
		member, selfID, err := clusterIdentity(opts.cluster, opts.nodeID, opts.addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stingd:", err)
			return 2
		}
		check, err := cluster.SelfCheck(member, selfID, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stingd:", err)
			return 2
		}
		scfg.RouteCheck = check
		nodeName = selfID
		if opts.httpAddr == "" {
			// The cluster map may carry each node's observability
			// address (stingtop discovers dashboards through it); when it
			// names ours, serve there without a separate -http flag.
			if n, ok := member.ByID(selfID); ok && n.HTTP != "" {
				opts.httpAddr = n.HTTP
			}
		}
		fmt.Printf("stingd: cluster node %s (%d shards); misrouted keyed ops are redirected\n",
			selfID, member.Len())
	}
	srv := remote.NewServer(vm, scfg)
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stingd:", err)
		return 1
	}
	fmt.Printf("stingd: serving tuple spaces on %s (spaces: %s)\n",
		ln.Addr(), strings.Join(append(reg.Names(), "* on demand"), ", "))

	var d *diag.Diagnoser
	watchStop := make(chan struct{})
	if opts.diag {
		d = diag.New(diag.Config{
			Node:         nodeName,
			SamplePeriod: opts.diagSample,
			StallSLO:     opts.diagSLO,
			TopK:         opts.diagTopK,
			Waiters:      []diag.WaiterSource{reg},
			Parked: func() []diag.ParkInfo {
				parked := srv.Parked()
				out := make([]diag.ParkInfo, len(parked))
				for i, p := range parked {
					out[i] = diag.ParkInfo{Conn: p.Conn, Op: p.Op, Space: p.Space, Since: p.Since}
				}
				return out
			},
			VM: vm,
		})
		d.Start()
		defer d.Stop()
		if opts.diagWatch > 0 {
			startWatchdog(vm, d, opts.diagWatch, watchStop)
		}
		fmt.Printf("stingd: runtime diagnosis on (sample %v, stall SLO %v; SIGQUIT dumps the flight recorder)\n",
			opts.diagSample, opts.diagSLO)
	}

	var draining atomic.Bool
	var spans *obs.SpanRing
	if opts.httpAddr != "" || opts.traceOut != "" {
		// Span tracing engages whenever there is somewhere for the spans to
		// go: the HTTP surface, the drain-time dump file, or both.
		spans = obs.NewSpanRing(obsSpanCap)
		obs.SetSpanSink(spans.Record)
	}
	if opts.httpAddr != "" {
		trace := core.NewTraceRing(obsTraceCap)
		core.SetTracer(trace.Record)
		h := buildObsHandler(vm, reg, srv, obsWiring{
			trace:    trace,
			spans:    spans,
			d:        d,
			node:     nodeName,
			pprof:    opts.pprof,
			draining: &draining,
		})
		obsAddr, err := serveObs(opts.httpAddr, h)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stingd:", err)
			return 1
		}
		endpoints := "/metrics /healthz /readyz /debug/trace /debug/spans"
		if d != nil {
			endpoints += " /debug/diag"
		}
		if opts.pprof {
			endpoints += " /debug/pprof/"
		}
		fmt.Printf("stingd: observability on http://%s (%s)\n", obsAddr, endpoints)
	}

	if opts.statsEvery > 0 {
		go func() {
			for range time.Tick(opts.statsEvery) {
				srv.WriteStats(os.Stdout) //nolint:errcheck
			}
		}()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if d != nil {
		// SIGQUIT becomes "dump the flight recorder and keep serving"
		// (JVM-style); without the diagnoser it keeps Go's default
		// goroutine-dump-and-exit behavior.
		signal.Notify(sigs, syscall.SIGQUIT)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	var sig os.Signal
wait:
	for {
		select {
		case sig = <-sigs:
			if sig == syscall.SIGQUIT {
				fmt.Fprintln(os.Stderr, "stingd: SIGQUIT — dumping flight recorder")
				d.Record("dump", "", "", "SIGQUIT", 0)
				if err := d.DumpJSON(os.Stderr); err != nil {
					fmt.Fprintln(os.Stderr, "stingd: dump:", err)
				}
				continue
			}
			break wait
		case err := <-done:
			if err != nil {
				fmt.Fprintln(os.Stderr, "stingd:", err)
				return 1
			}
			return 0
		}
	}
	fmt.Printf("stingd: %v — draining\n", sig)
	draining.Store(true) // /readyz flips to 503 before the drain starts
	close(watchStop)
	if d != nil {
		d.Record("drain", "", "", "readyz flipped to 503; shutting down", 0)
	}
	srv.Shutdown()
	if opts.snapshot != "" {
		// After Shutdown the registry is quiescent: waiters withdrawn,
		// in-flight requests answered.
		tuples, spaces, err := writeSnapshot(reg, opts.snapshot)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stingd: snapshot write:", err)
		} else {
			fmt.Printf("stingd: snapshotted %d tuples from %d spaces to %s\n", tuples, spaces, opts.snapshot)
		}
	}
	if opts.traceOut != "" && spans != nil {
		n, err := writeSpanDump(opts.traceOut, nodeName, spans)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stingd: span dump:", err)
		} else {
			fmt.Printf("stingd: dumped %d spans to %s\n", n, opts.traceOut)
		}
	}
	srv.WriteStats(os.Stdout) //nolint:errcheck
	return 0
}

// clusterIdentity resolves the membership and this daemon's node id: an
// explicit -node wins, otherwise the node whose addr equals -addr.
func clusterIdentity(spec, nodeID, addr string) (*cluster.Membership, string, error) {
	member, err := cluster.Load(spec)
	if err != nil {
		return nil, "", err
	}
	if nodeID != "" {
		return member, nodeID, nil
	}
	for _, n := range member.Nodes() {
		if n.Addr == addr {
			return member, n.ID, nil
		}
	}
	return nil, "", fmt.Errorf("no -node given and no cluster node listens on %q", addr)
}

// restoreSnapshot re-deposits a previous run's passive tuples, running the
// Puts on a STING thread. A missing file is a clean first boot.
func restoreSnapshot(vm *core.VM, reg *tspace.Registry, path string) (tuples, spaces int, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	defer f.Close() //nolint:errcheck
	store := persist.NewStore()
	if err := store.Restore(f); err != nil {
		return 0, 0, err
	}
	th := vm.Spawn(func(ctx *core.Context) ([]core.Value, error) {
		var rerr error
		spaces, tuples, rerr = persist.RestoreRegistry(ctx, reg, store)
		return nil, rerr
	}, core.WithName("stingd/restore"))
	if _, err := core.JoinThread(th); err != nil {
		return tuples, spaces, err
	}
	return tuples, spaces, nil
}

// writeSnapshot captures the registry's passive tuples to path atomically
// (temp file + rename).
func writeSnapshot(reg *tspace.Registry, path string) (tuples, spaces int, err error) {
	store := persist.NewStore()
	spaces, tuples, err = persist.SnapshotRegistry(reg, store)
	if err != nil {
		return tuples, spaces, err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return tuples, spaces, err
	}
	if err := store.Snapshot(f); err != nil {
		f.Close() //nolint:errcheck
		os.Remove(tmp)
		return tuples, spaces, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return tuples, spaces, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return tuples, spaces, err
	}
	return tuples, spaces, nil
}

// preopenSpaces parses "name=kind,name=kind" and creates each space.
func preopenSpaces(reg *tspace.Registry, spec string) error {
	if spec == "" {
		return nil
	}
	for _, entry := range strings.Split(spec, ",") {
		name, kindName, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || name == "" {
			return fmt.Errorf("bad -spaces entry %q (want name=kind)", entry)
		}
		kind, err := tspace.ParseKind(kindName)
		if err != nil {
			return err
		}
		if _, err := reg.Open(name, kind, tspace.Config{}); err != nil {
			return err
		}
	}
	return nil
}
