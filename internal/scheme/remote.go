package scheme

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/tspace"
)

// remoteSpace adapts a fabric space — a single server's (*remote.Space)
// or a sharded cluster's (*cluster.Space) — to Scheme: symbols (literal
// tags like job) travel as strings, and results convert back through the
// ordinary schemeValue path. Because it implements tspace.TupleSpace,
// every existing form — (put sp ...), (get sp (tpl) body...), (rd ...),
// (tuple-space-size sp) — works on a remote space unchanged.
type remoteSpace struct {
	sp tspace.TupleSpace
}

// withDeadline derives the underlying space with a per-op deadline; both
// fabric space flavors support it.
func (r remoteSpace) withDeadline(d time.Duration) tspace.TupleSpace {
	switch x := r.sp.(type) {
	case *remote.Space:
		return x.Deadline(d)
	case *cluster.Space:
		return x.Deadline(d)
	}
	return r.sp
}

func (r remoteSpace) wireTuple(tup tspace.Tuple) tspace.Tuple {
	out := make(tspace.Tuple, len(tup))
	for i, v := range tup {
		out[i] = wireValue(v)
	}
	return out
}

func (r remoteSpace) wireTemplate(tpl tspace.Template) tspace.Template {
	out := make(tspace.Template, len(tpl))
	for i, v := range tpl {
		if f, ok := v.(tspace.Formal); ok {
			out[i] = f
		} else {
			out[i] = wireValue(v)
		}
	}
	return out
}

// wireValue lowers a Scheme value to its wire representation.
func wireValue(v core.Value) core.Value {
	switch x := v.(type) {
	case Symbol:
		return string(x)
	case *SString:
		return x.String()
	default:
		return v
	}
}

func (r remoteSpace) Put(ctx *core.Context, tup tspace.Tuple) error {
	return r.sp.Put(ctx, r.wireTuple(tup))
}

func (r remoteSpace) Get(ctx *core.Context, tpl tspace.Template) (tspace.Tuple, tspace.Bindings, error) {
	return r.sp.Get(ctx, r.wireTemplate(tpl))
}

func (r remoteSpace) Rd(ctx *core.Context, tpl tspace.Template) (tspace.Tuple, tspace.Bindings, error) {
	return r.sp.Rd(ctx, r.wireTemplate(tpl))
}

func (r remoteSpace) TryGet(ctx *core.Context, tpl tspace.Template) (tspace.Tuple, tspace.Bindings, error) {
	return r.sp.TryGet(ctx, r.wireTemplate(tpl))
}

func (r remoteSpace) TryRd(ctx *core.Context, tpl tspace.Template) (tspace.Tuple, tspace.Bindings, error) {
	return r.sp.TryRd(ctx, r.wireTemplate(tpl))
}

func (r remoteSpace) Spawn(ctx *core.Context, thunks ...core.Thunk) ([]*core.Thread, error) {
	return r.sp.Spawn(ctx, thunks...)
}

func (r remoteSpace) Len() int          { return r.sp.Len() }
func (r remoteSpace) Kind() tspace.Kind { return r.sp.Kind() }

// Fabric dial defaults. The sting CLI's -remote-conns/-remote-batch
// flags install these before any program runs; every connection the
// interpreter opens afterwards — point clients and each shard of a
// cluster client alike — inherits them, so whole smoke runs can be
// flipped into pipelined/batched mode without touching the programs.
var (
	remoteDialMu       sync.RWMutex
	remoteDialDefaults remote.DialConfig
)

// SetRemoteDialDefaults installs the DialConfig applied to every fabric
// connection subsequently opened by remote-open (both "host:port" and
// "cluster:…" forms). Already-cached connections keep their config.
func SetRemoteDialDefaults(cfg remote.DialConfig) {
	remoteDialMu.Lock()
	remoteDialDefaults = cfg
	remoteDialMu.Unlock()
}

func remoteDialConfig() remote.DialConfig {
	remoteDialMu.RLock()
	defer remoteDialMu.RUnlock()
	return remoteDialDefaults
}

// fabricConn is one cached connection: a point client to a single
// daemon, or a routing client over a sharded cluster.
type fabricConn struct {
	rc *remote.Client
	cc *cluster.Client
}

func (f fabricConn) space(name string) tspace.TupleSpace {
	if f.cc != nil {
		return f.cc.Space(name)
	}
	return f.rc.Space(name)
}

func (f fabricConn) close() error {
	if f.cc != nil {
		return f.cc.Close()
	}
	return f.rc.Close()
}

// installRemote binds the networked-fabric surface:
//
//	(remote-open "host:port" "space")        → remote tuple space
//	(remote-open "cluster:a=h:p,b=h:p" "space")
//	                                         → sharded cluster space
//	(remote-put sp '(job 1))                 → unspecified
//	(remote-get sp '(job ?n) [timeout-ms])   → matched tuple as a list
//	(remote-rd sp '(job ?n) [timeout-ms])    → matched tuple as a list
//	(remote-try-get sp '(job ?n))            → tuple list or #f
//	(remote-try-rd sp '(job ?n))             → tuple list or #f
//	(remote-stats "host:port")               → assoc list of counters
//	(cluster-health "cluster:…")             → list of (node addr ok fails)
//	(remote-close ["host:port"])             → unspecified
//
// Connections are cached per address and shared by every space opened
// through them. A "cluster:" prefix names a sharded cluster — the rest is
// a nodes.json path or an "id=addr,…" spec — and the resulting spaces
// route keyed ops by their first field and fan wildcard templates out to
// every shard. The procedural remote-* forms take quoted templates (?x
// marks a formal); remote spaces equally work with the generic put/get/rd
// binding forms.
func installRemote(in *Interp) {
	var mu sync.Mutex
	clients := map[string]fabricConn{}

	dial := func(ctx *core.Context, addr string) (fabricConn, error) {
		mu.Lock()
		defer mu.Unlock()
		if c, ok := clients[addr]; ok {
			return c, nil
		}
		if spec, ok := strings.CutPrefix(addr, "cluster:"); ok {
			cc, err := cluster.OpenSpec(spec, cluster.Config{Dial: remoteDialConfig(), ProbeInterval: time.Second})
			if err != nil {
				return fabricConn{}, err
			}
			conn := fabricConn{cc: cc}
			clients[addr] = conn
			return conn, nil
		}
		c, err := remote.Dial(ctx, addr, remoteDialConfig())
		if err != nil {
			return fabricConn{}, err
		}
		conn := fabricConn{rc: c}
		clients[addr] = conn
		return conn, nil
	}

	stringArg := func(who string, v Value) (string, error) {
		switch x := v.(type) {
		case *SString:
			return x.String(), nil
		case Symbol:
			return string(x), nil
		default:
			return "", Errorf("%s: expected a string, got %s", who, WriteString(v))
		}
	}

	spaceArg := func(who string, v Value) (remoteSpace, error) {
		sp, ok := v.(remoteSpace)
		if !ok {
			return remoteSpace{}, Errorf("%s: not a remote tuple space: %s", who, WriteString(v))
		}
		return sp, nil
	}

	// quotedTemplate parses a quoted list into a template: ?x symbols are
	// formals, everything else lowers via wireValue.
	quotedTemplate := func(who string, v Value) (tspace.Template, error) {
		items, err := ListToSlice(v)
		if err != nil {
			return nil, Errorf("%s: bad template: %v", who, err)
		}
		tpl := make(tspace.Template, len(items))
		for i, it := range items {
			if s, ok := it.(Symbol); ok && len(s) > 0 && s[0] == '?' {
				tpl[i] = tspace.F(string(s[1:]))
				continue
			}
			tpl[i] = wireValue(it)
		}
		return tpl, nil
	}

	tupleList := func(tup tspace.Tuple) Value {
		out := make([]Value, len(tup))
		for i, v := range tup {
			out[i] = schemeValue(v)
		}
		return List(out...)
	}

	in.prim("remote-open", 2, 2, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		addr, err := stringArg("remote-open", a[0])
		if err != nil {
			return nil, err
		}
		name, err := stringArg("remote-open", a[1])
		if err != nil {
			return nil, err
		}
		c, err := dial(ctx, addr)
		if err != nil {
			return nil, Errorf("remote-open: %v", err)
		}
		return remoteSpace{sp: c.space(name)}, nil
	})

	in.prim("remote-put", 2, 2, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		sp, err := spaceArg("remote-put", a[0])
		if err != nil {
			return nil, err
		}
		items, err := ListToSlice(a[1])
		if err != nil {
			return nil, Errorf("remote-put: %v", err)
		}
		tup := make(tspace.Tuple, len(items))
		for i, it := range items {
			tup[i] = tupleValue(it)
		}
		return Unspecified, sp.Put(ctx, tup)
	})

	matching := func(name string, blocking, remove bool) {
		maxArgs := 2
		if blocking {
			maxArgs = 3
		}
		in.prim(name, 2, maxArgs, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
			sp, err := spaceArg(name, a[0])
			if err != nil {
				return nil, err
			}
			tpl, err := quotedTemplate(name, a[1])
			if err != nil {
				return nil, err
			}
			target := sp.sp
			if len(a) == 3 {
				ms, ok := a[2].(int64)
				if !ok || ms < 0 {
					return nil, Errorf("%s: timeout must be a nonnegative integer (ms)", name)
				}
				target = sp.withDeadline(time.Duration(ms) * time.Millisecond)
			}
			var tup tspace.Tuple
			switch {
			case blocking && remove:
				tup, _, err = target.Get(ctx, tpl)
			case blocking:
				tup, _, err = target.Rd(ctx, tpl)
			case remove:
				tup, _, err = target.TryGet(ctx, tpl)
			default:
				tup, _, err = target.TryRd(ctx, tpl)
			}
			if err == tspace.ErrNoMatch {
				return false, nil
			}
			if err != nil {
				return nil, Errorf("%s: %v", name, err)
			}
			return tupleList(tup), nil
		})
	}
	matching("remote-get", true, true)
	matching("remote-rd", true, false)
	matching("remote-try-get", false, true)
	matching("remote-try-rd", false, false)

	in.prim("remote-stats", 1, 1, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		addr, err := stringArg("remote-stats", a[0])
		if err != nil {
			return nil, err
		}
		c, err := dial(ctx, addr)
		if err != nil {
			return nil, Errorf("remote-stats: %v", err)
		}
		if c.rc == nil {
			return nil, Errorf("remote-stats: %s is a cluster; use cluster-health", addr)
		}
		ms, err := c.rc.Stats(ctx)
		if err != nil {
			return nil, Errorf("remote-stats: %v", err)
		}
		var ops, blocked, timeouts, conns int64
		var depths []Value
		for _, m := range ms {
			switch m.Name {
			case "sting_remote_ops_total":
				ops += int64(m.Value)
			case "sting_remote_blocked":
				blocked = int64(m.Value)
			case "sting_remote_timeouts_total":
				timeouts = int64(m.Value)
			case "sting_remote_conns_total":
				conns = int64(m.Value)
			case "sting_tspace_depth":
				for _, l := range m.Labels {
					if l.Key == "space" {
						depths = append(depths, List(Symbol("depth"), NewSString(l.Value), int64(m.Value)))
					}
				}
			}
		}
		return List(append([]Value{
			List(Symbol("ops"), ops),
			List(Symbol("blocked"), blocked),
			List(Symbol("timeouts"), timeouts),
			List(Symbol("conns"), conns),
		}, depths...)...), nil
	})

	in.prim("cluster-health", 1, 1, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		addr, err := stringArg("cluster-health", a[0])
		if err != nil {
			return nil, err
		}
		c, err := dial(ctx, addr)
		if err != nil {
			return nil, Errorf("cluster-health: %v", err)
		}
		if c.cc == nil {
			return nil, Errorf("cluster-health: %s is not a cluster (want a \"cluster:\" address)", addr)
		}
		c.cc.ProbeOnce()
		var rows []Value
		for _, h := range c.cc.Health() {
			rows = append(rows, List(Symbol(h.Node), NewSString(h.Addr), h.Healthy, int64(h.Fails)))
		}
		return List(rows...), nil
	})

	in.prim("remote-close", 0, 1, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		only := ""
		if len(a) == 1 {
			var err error
			if only, err = stringArg("remote-close", a[0]); err != nil {
				return nil, err
			}
		}
		var closing []fabricConn
		mu.Lock()
		for addr, c := range clients {
			if len(a) == 0 || addr == only {
				delete(clients, addr)
				closing = append(closing, c)
			}
		}
		mu.Unlock()
		var err error
		offThread(ctx, func() {
			for _, c := range closing {
				err = errors.Join(err, c.close())
			}
		})
		return Unspecified, err
	})
}

// offThread runs fn on a plain goroutine and parks the calling STING
// thread until it returns. fn may then wait on Go-level synchronization
// (a sync.WaitGroup, a channel) for threads that need the caller's VP to
// finish — a fabric Close draining its cancelled fan-out branches.
func offThread(ctx *core.Context, fn func()) {
	if ctx == nil {
		fn()
		return
	}
	var done atomic.Bool
	tcb := ctx.TCB()
	go func() {
		fn()
		done.Store(true)
		core.WakeTCB(tcb)
	}()
	ctx.BlockUntil(done.Load)
}
