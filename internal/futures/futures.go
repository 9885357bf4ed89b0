// Package futures layers MultiLisp-style future/touch (§4.1 of the paper)
// on substrate threads. A future is just a thread whose thunk computes one
// value; touch is thread-wait plus value retrieval, and inherits the
// substrate's stealing optimization: touching a delayed or scheduled future
// runs its thunk inline on the toucher's TCB, throttling process creation
// and improving locality exactly as lazy task creation does.
package futures

import (
	"repro/internal/core"
)

// Future is the object created by Spawn/Delay; it is determined when its
// computation completes.
type Future struct {
	t *core.Thread
}

// Thunk computes a future's single value.
type Thunk func(ctx *core.Context) (core.Value, error)

func wrap(f Thunk) core.Thunk {
	return func(ctx *core.Context) ([]core.Value, error) {
		v, err := f(ctx)
		if err != nil {
			return nil, err
		}
		return []core.Value{v}, nil
	}
}

// Spawn creates an eagerly scheduled future on the current VP (the classic
// (future E) of MultiLisp and Mul-T).
func Spawn(ctx *core.Context, f Thunk, opts ...core.ThreadOption) *Future {
	return &Future{t: ctx.Fork(wrap(f), nil, opts...)}
}

// SpawnOn is Spawn with explicit VP placement.
func SpawnOn(ctx *core.Context, vp *core.VP, f Thunk, opts ...core.ThreadOption) *Future {
	return &Future{t: ctx.Fork(wrap(f), vp, opts...)}
}

// Delay creates a delayed future: it never runs unless touched (and is then
// usually stolen) or explicitly scheduled with Schedule.
func Delay(ctx *core.Context, f Thunk, opts ...core.ThreadOption) *Future {
	return &Future{t: ctx.CreateThread(wrap(f), opts...)}
}

// Thread returns the backing thread — futures are bona fide data objects.
func (f *Future) Thread() *core.Thread { return f.t }

// Determined reports whether the future has a value.
func (f *Future) Determined() bool { return f.t.Determined() }

// Touch demands the future's value, blocking (or stealing) as required.
func (f *Future) Touch(ctx *core.Context) (core.Value, error) {
	return ctx.Value1(f.t)
}

// TouchAll touches every future, returning the values in order; the first
// error wins but all futures are still demanded (so no computation is left
// silently delayed).
func TouchAll(ctx *core.Context, fs []*Future) ([]core.Value, error) {
	out := make([]core.Value, len(fs))
	var firstErr error
	for i, f := range fs {
		v, err := f.Touch(ctx)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		out[i] = v
	}
	return out, firstErr
}

// Schedule makes a delayed future runnable on vp without touching it.
func (f *Future) Schedule(vp *core.VP) error { return core.ThreadRun(f.t, vp) }

// SetStealable parameterizes whether touch may steal this future.
func (f *Future) SetStealable(ok bool) { f.t.SetStealable(ok) }
