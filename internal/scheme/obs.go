package scheme

import (
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tspace"
)

// installObs binds the observability surface — the paper's environment
// story asks for "observing the dynamic unfolding of computations" from
// inside the language, not only from an external scraper:
//
//	(vp-stats)                 → assoc list of the calling thread's VP counters
//	(vm-stats)                 → assoc list of the VM's counters, summed over its VPs
//	(named-space name [kind])  → tuple space from the interpreter's registry
//	(space-depth name)         → tuples currently in the named space
//
// The named-space registry is the same one a co-resident fabric server
// publishes (wire it in with WithSpaces), so a Scheme program can inspect
// the very spaces remote peers are filling.
func installObs(in *Interp) {
	in.prim("vp-stats", 0, 0, func(_ *Interp, ctx *core.Context, _ []Value) (Value, error) {
		vp := ctx.VP()
		if vp == nil {
			return nil, Errorf("vp-stats: thread is not placed on a VP")
		}
		s := vp.Stats().Snapshot()
		return List(
			List(Symbol("vp"), int64(vp.Index())),
			List(Symbol("dispatches"), int64(s.Dispatches)),
			List(Symbol("switches"), int64(s.Switches)),
			List(Symbol("preemptions"), int64(s.Preemptions)),
			List(Symbol("blocks"), int64(s.Blocks)),
			List(Symbol("steals"), int64(s.Steals)),
			List(Symbol("scheduled"), int64(s.Scheduled)),
			List(Symbol("idles"), int64(s.Idles)),
			List(Symbol("tcb-hits"), int64(s.TCBHits)),
			List(Symbol("tcb-misses"), int64(s.TCBMisses)),
			List(Symbol("migrations"), int64(s.Migrations)),
		), nil
	})

	in.prim("vm-stats", 0, 0, func(_ *Interp, ctx *core.Context, _ []Value) (Value, error) {
		s := ctx.VM().Stats()
		return List(
			List(Symbol("threads-created"), int64(s.ThreadsCreated)),
			List(Symbol("threads-determined"), int64(s.ThreadsDetermined)),
			List(Symbol("steals"), int64(s.Steals)),
			List(Symbol("switches"), int64(s.VPs.Switches)),
			List(Symbol("blocks"), int64(s.VPs.Blocks)),
			List(Symbol("preemptions"), int64(s.VPs.Preemptions)),
			List(Symbol("dispatches"), int64(s.VPs.Dispatches)),
			List(Symbol("tcb-hits"), int64(s.VPs.TCBHits)),
			List(Symbol("tcb-misses"), int64(s.VPs.TCBMisses)),
			List(Symbol("migrations"), int64(s.VPs.Migrations)),
		), nil
	})

	nameArg := func(who string, v Value) (string, error) {
		switch x := v.(type) {
		case *SString:
			return x.String(), nil
		case Symbol:
			return string(x), nil
		default:
			return "", Errorf("%s: expected a space name, got %s", who, WriteString(v))
		}
	}

	in.prim("named-space", 1, 2, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		name, err := nameArg("named-space", a[0])
		if err != nil {
			return nil, err
		}
		if len(a) == 1 {
			return in.spaces.OpenDefault(name), nil
		}
		kind, err := spaceKind("named-space", a[1])
		if err != nil {
			return nil, err
		}
		ts, err := in.spaces.Open(name, kind, tspace.Config{})
		if err != nil {
			return nil, Errorf("named-space: %v", err)
		}
		return ts, nil
	})

	in.prim("space-depth", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		name, err := nameArg("space-depth", a[0])
		if err != nil {
			return nil, err
		}
		return int64(in.spaces.OpenDefault(name).Len()), nil
	})

	in.prim("space-names", 0, 0, func(_ *Interp, _ *core.Context, _ []Value) (Value, error) {
		names := in.spaces.Names()
		sort.Strings(names)
		out := make([]Value, len(names))
		for i, n := range names {
			out[i] = NewSString(n)
		}
		return List(out...), nil
	})

	// (current-trace-id) → the calling thread's trace ID as a hex string,
	// or #f when the thread is untraced. Forked threads inherit the span
	// context, so a whole computation tree answers the same ID.
	in.prim("current-trace-id", 0, 0, func(_ *Interp, ctx *core.Context, _ []Value) (Value, error) {
		sc := ctx.SpanContext()
		if !sc.Valid() {
			return false, nil
		}
		return NewSString(sc.Trace.String()), nil
	})

	// (diag-report) → the runtime diagnoser's current view as an assoc
	// list: waiter count, stalled waiters (space/key/age/thread/trace),
	// deadlock cycles, and per-space hot keys. A fresh sample is taken on
	// every call, so the report is never stale. Without a wired diagnoser
	// (WithDiag) the form degrades to a waiters-only view over the
	// interpreter's space registry — same shape, empty analysis sections —
	// so diagnosis scripts run unchanged in both configurations.
	in.prim("diag-report", 0, 0, func(_ *Interp, _ *core.Context, _ []Value) (Value, error) {
		if in.diag == nil {
			return List(
				List(Symbol("waiters"), int64(len(in.spaces.WaiterInfos()))),
				List(Symbol("stalls")),
				List(Symbol("deadlocks")),
				List(Symbol("hot-keys")),
			), nil
		}
		rep := in.diag.Sample()
		stalls := make([]Value, 0, len(rep.Stalls))
		for _, st := range rep.Stalls {
			stalls = append(stalls, List(
				List(Symbol("space"), NewSString(st.Space)),
				List(Symbol("key"), NewSString(st.Key)),
				List(Symbol("age-ms"), st.AgeMs),
				List(Symbol("thread"), int64(st.Thread)),
				List(Symbol("trace"), NewSString(st.Trace)),
			))
		}
		cycles := make([]Value, 0, len(rep.Deadlocks))
		for _, cyc := range rep.Deadlocks {
			refs := make([]Value, 0, len(cyc))
			for _, ref := range cyc {
				refs = append(refs, List(
					List(Symbol("thread"), int64(ref.ID)),
					List(Symbol("space"), NewSString(ref.Space)),
					List(Symbol("key"), NewSString(ref.Key)),
				))
			}
			cycles = append(cycles, List(refs...))
		}
		var hot []Value
		spaceNames := make([]string, 0, len(rep.Spaces))
		for name := range rep.Spaces {
			spaceNames = append(spaceNames, name)
		}
		sort.Strings(spaceNames)
		for _, name := range spaceNames {
			sp := rep.Spaces[name]
			for _, hk := range sp.Takes {
				hot = append(hot, List(
					List(Symbol("space"), NewSString(name)),
					List(Symbol("op"), Symbol("take")),
					List(Symbol("key"), NewSString(hk.Key)),
					List(Symbol("count"), int64(hk.Count)),
				))
			}
			for _, hk := range sp.Puts {
				hot = append(hot, List(
					List(Symbol("space"), NewSString(name)),
					List(Symbol("op"), Symbol("put")),
					List(Symbol("key"), NewSString(hk.Key)),
					List(Symbol("count"), int64(hk.Count)),
				))
			}
		}
		entry := func(name string, items []Value) Value {
			return List(append([]Value{Symbol(name)}, items...)...)
		}
		return List(
			List(Symbol("node"), NewSString(rep.Node)),
			List(Symbol("waiters"), int64(rep.Waiters)),
			entry("stalls", stalls),
			entry("deadlocks", cycles),
			entry("hot-keys", hot),
		), nil
	})

	// (with-span name thunk) → runs thunk under a child span named name;
	// remote ops inside it stitch to server spans under that parent. The
	// span closes when the thunk returns (or errors), and the body runs
	// even when tracing is off.
	in.prim("with-span", 2, 2, func(_ *Interp, ctx *core.Context, a []Value) (Value, error) {
		name, err := nameArg("with-span", a[0])
		if err != nil {
			return nil, err
		}
		var out Value
		var aerr error
		ctx.WithSpan(name, func(s *obs.Span) {
			out, aerr = in.Apply(ctx, a[1], nil)
			if aerr != nil {
				s.SetAttr("error", aerr.Error())
			}
		})
		return out, aerr
	})
}

// spaceKind maps a representation symbol to its tspace kind, in the
// vocabulary stingd -spaces and snapshots use (tspace.ParseKind); who names
// the primitive in the error. The empty symbol, which ParseKind reads as
// hash for flags and snapshots, is refused.
func spaceKind(who string, v Value) (tspace.Kind, error) {
	s, ok := v.(Symbol)
	if !ok {
		return 0, Errorf("%s: representation must be a symbol", who)
	}
	if k, err := tspace.ParseKind(string(s)); err == nil && s != "" {
		return k, nil
	}
	return 0, Errorf("%s: unknown representation %s", who, s)
}
