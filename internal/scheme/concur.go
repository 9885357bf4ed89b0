package scheme

import (
	"time"

	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/streams"
	"repro/internal/synch"
	"repro/internal/tspace"
)

// threadArg coerces a Scheme value to a substrate thread.
func threadArg(name string, v Value) (*core.Thread, error) {
	t, ok := v.(*core.Thread)
	if !ok {
		return nil, Errorf("%s: not a thread: %s", name, WriteString(v))
	}
	return t, nil
}

func threadsArg(name string, v Value) ([]*core.Thread, error) {
	items, err := ListToSlice(v)
	if err != nil {
		return nil, Errorf("%s: %v", name, err)
	}
	out := make([]*core.Thread, len(items))
	for i, it := range items {
		t, err := threadArg(name, it)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

func streamArg(name string, v Value) (*streams.Stream, error) {
	s, ok := v.(*streams.Stream)
	if !ok {
		return nil, Errorf("%s: not a stream: %s", name, WriteString(v))
	}
	return s, nil
}

// installConcurrency binds the STING substrate operations (§3.1's thread
// controller interface and the §4 synchronization structures).
func installConcurrency(in *Interp) {
	// Thread operations.
	in.prim("thread?", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		_, ok := a[0].(*core.Thread)
		return ok, nil
	})
	in.prim("thread-run", 1, 2, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		t, err := threadArg("thread-run", a[0])
		if err != nil {
			return nil, err
		}
		vp := ctx.VP()
		if len(a) == 2 {
			vp, err = coerceVP(ctx, a[1])
			if err != nil {
				return nil, err
			}
		}
		_ = core.ThreadRun(t, vp) // scheduling an already-runnable thread is benign
		return Unspecified, nil
	})
	in.prim("thread-wait", 1, 1, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		t, err := threadArg("thread-wait", a[0])
		if err != nil {
			return nil, err
		}
		ctx.Wait(t)
		return Unspecified, nil
	})
	in.prim("thread-value", 1, 1, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		t, err := threadArg("thread-value", a[0])
		if err != nil {
			return nil, err
		}
		vals, err := ctx.Value(t)
		if err != nil {
			return nil, err
		}
		return oneValue(vals), nil
	})
	in.prim("thread-block", 1, 2, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		t, err := threadArg("thread-block", a[0])
		if err != nil {
			return nil, err
		}
		var blocker Value
		if len(a) == 2 {
			blocker = a[1]
		}
		ctx.ThreadBlock(t, blocker)
		return Unspecified, nil
	})
	in.prim("thread-suspend", 1, 2, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		t, err := threadArg("thread-suspend", a[0])
		if err != nil {
			return nil, err
		}
		var quantum time.Duration
		if len(a) == 2 {
			ms, err := intOf(a[1])
			if err != nil {
				return nil, err
			}
			quantum = time.Duration(ms) * time.Millisecond
		}
		ctx.ThreadSuspend(t, quantum)
		return Unspecified, nil
	})
	in.prim("thread-terminate", 1, -1, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		t, err := threadArg("thread-terminate", a[0])
		if err != nil {
			return nil, err
		}
		core.ThreadTerminate(t, append([]Value(nil), a[1:]...)...) // the thread keeps them; a is lent
		return Unspecified, nil
	})
	in.prim("yield-processor", 0, 0, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		ctx.Yield()
		return Unspecified, nil
	})
	in.prim("current-thread", 0, 0, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		return ctx.Thread(), nil
	})
	in.prim("current-vp", 0, 0, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		return ctx.VP(), nil
	})
	// (fluid key [default]) reads the thread's dynamic environment: the
	// value fluid-let bound to key in the current extent, else default
	// (#f when omitted). Keys are the symbols fluid-let binds.
	in.prim("fluid", 1, 2, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		sym, ok := a[0].(Symbol)
		if !ok {
			return nil, Errorf("fluid: key must be a symbol: %s", WriteString(a[0]))
		}
		if v, ok := ctx.Fluid(sym); ok {
			return v, nil
		}
		if len(a) == 2 {
			return a[1], nil
		}
		return false, nil
	})
	in.prim("thread-state", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		t, err := threadArg("thread-state", a[0])
		if err != nil {
			return nil, err
		}
		return Symbol(t.State().String()), nil
	})
	in.prim("determined?", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		t, err := threadArg("determined?", a[0])
		if err != nil {
			return nil, err
		}
		return t.Determined(), nil
	})
	in.prim("thread-stealable!", 2, 2, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		t, err := threadArg("thread-stealable!", a[0])
		if err != nil {
			return nil, err
		}
		t.SetStealable(IsTruthy(a[1]))
		return Unspecified, nil
	})
	in.prim("thread-priority!", 2, 2, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		t, err := threadArg("thread-priority!", a[0])
		if err != nil {
			return nil, err
		}
		p, err := intOf(a[1])
		if err != nil {
			return nil, err
		}
		ctx.VP().SetPriority(t, int(p))
		return Unspecified, nil
	})

	// VPs and topology (§3.2's addressing modes).
	in.prim("vp-index", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		vp, ok := a[0].(*core.VP)
		if !ok {
			return nil, Errorf("vp-index: not a vp")
		}
		return int64(vp.Index()), nil
	})
	in.prim("vm-vp-count", 0, 0, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		return int64(ctx.VM().NVPs()), nil
	})
	in.prim("vm-vp", 1, 1, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		i, err := intOf(a[0])
		if err != nil {
			return nil, err
		}
		return ctx.VM().VP(int(i)), nil
	})
	in.prim("left-vp", 0, 1, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		vp, err := optVP(ctx, a)
		if err != nil {
			return nil, err
		}
		return core.LeftVP(vp), nil
	})
	in.prim("right-vp", 0, 1, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		vp, err := optVP(ctx, a)
		if err != nil {
			return nil, err
		}
		return core.RightVP(vp), nil
	})
	in.prim("up-vp", 0, 1, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		vp, err := optVP(ctx, a)
		if err != nil {
			return nil, err
		}
		return core.UpVP(vp), nil
	})
	in.prim("down-vp", 0, 1, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		vp, err := optVP(ctx, a)
		if err != nil {
			return nil, err
		}
		return core.DownVP(vp), nil
	})

	// Thread groups (§3.1's debugging/en-masse control facility).
	// (thread-group t) returns the group of t's children — the paper's
	// (thread.group T), so (kill-group (thread-group T)) terminates T's
	// subtree. (thread-own-group t) returns the group t itself belongs to.
	in.prim("thread-group", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		t, err := threadArg("thread-group", a[0])
		if err != nil {
			return nil, err
		}
		return t.ChildGroup(), nil
	})
	in.prim("thread-own-group", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		t, err := threadArg("thread-own-group", a[0])
		if err != nil {
			return nil, err
		}
		return t.Group(), nil
	})
	in.prim("make-thread-group", 0, 1, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		name := "group"
		if len(a) == 1 {
			name = DisplayString(a[0])
		}
		return core.NewGroup(name, ctx.Thread().Group()), nil
	})
	in.prim("kill-group", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		g, ok := a[0].(*core.Group)
		if !ok {
			return nil, Errorf("kill-group: not a thread group")
		}
		g.Terminate()
		return Unspecified, nil
	})
	// (thread-tree t) renders t's genealogy — the §3.1 process-tree monitor.
	in.prim("thread-tree", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		t, err := threadArg("thread-tree", a[0])
		if err != nil {
			return nil, err
		}
		return NewSString(core.DumpTree(t)), nil
	})
	// (terminate! t) is the authority-checked form of thread-terminate.
	in.prim("terminate!", 1, -1, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		t, err := threadArg("terminate!", a[0])
		if err != nil {
			return nil, err
		}
		if err := ctx.Terminate(t, append([]Value(nil), a[1:]...)...); err != nil {
			return nil, Errorf("terminate!: %v", err)
		}
		return Unspecified, nil
	})
	in.prim("group-threads", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		g, ok := a[0].(*core.Group)
		if !ok {
			return nil, Errorf("group-threads: not a thread group")
		}
		ts := g.Threads()
		out := make([]Value, len(ts))
		for i, t := range ts {
			out[i] = t
		}
		return List(out...), nil
	})

	// Speculation and barriers (§4.3).
	in.prim("wait-for-one", 1, -1, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		ts, err := specThreads("wait-for-one", a)
		if err != nil {
			return nil, err
		}
		winner, err := spec.WaitForOne(ctx, ts)
		if err != nil {
			return nil, err
		}
		vals, err := winner.TryValue()
		if err != nil {
			return nil, err
		}
		return oneValue(vals), nil
	})
	in.prim("wait-for-all", 1, -1, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		ts, err := specThreads("wait-for-all", a)
		if err != nil {
			return nil, err
		}
		spec.WaitForAll(ctx, ts)
		return true, nil
	})
	in.prim("block-on-group", 2, 2, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		n, err := intOf(a[0])
		if err != nil {
			return nil, err
		}
		ts, err := threadsArg("block-on-group", a[1])
		if err != nil {
			return nil, err
		}
		ctx.BlockOnGroup(int(n), ts)
		return Unspecified, nil
	})

	// Mutexes (§4.2.1).
	in.prim("make-mutex", 0, 2, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		active, passive := int64(16), int64(4)
		var err error
		if len(a) >= 1 {
			if active, err = intOf(a[0]); err != nil {
				return nil, err
			}
		}
		if len(a) == 2 {
			if passive, err = intOf(a[1]); err != nil {
				return nil, err
			}
		}
		return synch.NewMutex(int(active), int(passive)), nil
	})
	in.prim("mutex-acquire", 1, 1, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		m, ok := a[0].(*synch.Mutex)
		if !ok {
			return nil, Errorf("mutex-acquire: not a mutex")
		}
		m.Acquire(ctx)
		return Unspecified, nil
	})
	in.prim("mutex-release", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		m, ok := a[0].(*synch.Mutex)
		if !ok {
			return nil, Errorf("mutex-release: not a mutex")
		}
		m.Release()
		return Unspecified, nil
	})

	// Tuple spaces (§4.2): make-tuple-space with an optional representation
	// symbol; put and the procedural get/rd variants. The binding forms
	// (get ts (tpl) body...) live in forms.go.
	in.prim("make-tuple-space", 0, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		kind := tspace.KindHash
		if len(a) == 1 {
			s, ok := a[0].(Symbol)
			if !ok {
				return nil, Errorf("make-tuple-space: representation must be a symbol")
			}
			switch s {
			case "hash":
				kind = tspace.KindHash
			case "bag":
				kind = tspace.KindBag
			case "set":
				kind = tspace.KindSet
			case "queue":
				kind = tspace.KindQueue
			case "vector":
				kind = tspace.KindVector
			case "shared-variable":
				kind = tspace.KindSharedVar
			case "semaphore":
				kind = tspace.KindSemaphore
			default:
				return nil, Errorf("make-tuple-space: unknown representation %s", s)
			}
		}
		return tspace.New(kind, tspace.Config{}), nil
	})
	in.prim("tuple-space?", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		_, ok := a[0].(tspace.TupleSpace)
		return ok, nil
	})
	in.prim("put", 2, 2, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		ts, ok := a[0].(tspace.TupleSpace)
		if !ok {
			return nil, Errorf("put: not a tuple space")
		}
		items, err := ListToSlice(a[1])
		if err != nil {
			return nil, Errorf("put: %v", err)
		}
		tup := make(tspace.Tuple, len(items))
		for i, it := range items {
			tup[i] = tupleValue(it)
		}
		if tx, active := activeTxn(ctx); active {
			return Unspecified, txnPut(tx, ts, tup)
		}
		return Unspecified, ts.Put(ctx, tup)
	})
	in.prim("tuple-space-size", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		ts, ok := a[0].(tspace.TupleSpace)
		if !ok {
			return nil, Errorf("tuple-space-size: not a tuple space")
		}
		return int64(ts.Len()), nil
	})

	// Streams (the Fig. 2 sieve substrate).
	in.prim("make-stream", 0, 0, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		return streams.New(), nil
	})
	in.prim("stream-hd", 1, 1, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		s, err := streamArg("stream-hd", a[0])
		if err != nil {
			return nil, err
		}
		v, err := s.Hd(ctx)
		if err != nil {
			return nil, err
		}
		return schemeValue(v), nil
	})
	in.prim("stream-attach", 2, 2, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		s, err := streamArg("stream-attach", a[0])
		if err != nil {
			return nil, err
		}
		s.Attach(tupleValue(a[1]))
		return Unspecified, nil
	})
	in.prim("stream-rest", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		s, err := streamArg("stream-rest", a[0])
		if err != nil {
			return nil, err
		}
		return s.Rest(), nil
	})
	in.prim("stream-close", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		s, err := streamArg("stream-close", a[0])
		if err != nil {
			return nil, err
		}
		s.Close()
		return Unspecified, nil
	})
	in.prim("stream-closed?", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		s, err := streamArg("stream-closed?", a[0])
		if err != nil {
			return nil, err
		}
		return s.Closed(), nil
	})
	in.prim("stream-eos?", 1, 1, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		s, err := streamArg("stream-eos?", a[0])
		if err != nil {
			return nil, err
		}
		_, ok, herr := s.TryHd()
		if herr != nil {
			return true, nil
		}
		if ok {
			return false, nil
		}
		// Not yet known: block until an element or close arrives.
		if _, err := s.Hd(ctx); err != nil {
			return true, nil
		}
		return false, nil
	})
	in.prim("integer-stream", 1, 1, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		limit, err := intOf(a[0])
		if err != nil {
			return nil, err
		}
		return streams.Integers(ctx, int(limit)), nil
	})
}

func optVP(ctx *core.Context, a []Value) (*core.VP, error) {
	if len(a) == 0 {
		return ctx.VP(), nil
	}
	return coerceVP(ctx, a[0])
}

func specThreads(name string, a []Value) ([]*core.Thread, error) {
	// Accept either a single list of threads or threads as direct args.
	if len(a) == 1 {
		if _, isThread := a[0].(*core.Thread); !isThread {
			return threadsArg(name, a[0])
		}
	}
	out := make([]*core.Thread, len(a))
	for i, v := range a {
		t, err := threadArg(name, v)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}
