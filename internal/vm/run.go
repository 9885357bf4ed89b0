package vm

import (
	"repro/internal/core"
	"repro/internal/scheme"
	"repro/internal/synch"
	"repro/internal/tspace"
)

// inlineSlots is how many slots a frame carries inside itself: activations
// and binding forms that small — nearly all of them — are one allocation.
const inlineSlots = 4

// frame is one runtime environment rib: the slots of a binding construct or
// procedure activation, lexically chained. Slots are addressed (depth, slot)
// so variable access never hashes or allocates.
type frame struct {
	slots  []scheme.Value // inline[:n], or its own array when n > inlineSlots
	parent *frame
	inline [inlineSlots]scheme.Value
}

// newFrame builds a frame of n slots whose first len(vals) hold vals — the
// caller's operand-stack window, copied, never kept — and the rest the
// unspecified value.
func newFrame(n int, vals []scheme.Value, parent *frame) *frame {
	f := &frame{parent: parent}
	if n <= inlineSlots {
		f.slots = f.inline[:n]
	} else {
		f.slots = make([]scheme.Value, n)
	}
	for i := copy(f.slots, vals); i < n; i++ {
		f.slots[i] = scheme.Unspecified
	}
	return f
}

func (f *frame) at(depth int) *frame {
	for ; depth > 0; depth-- {
		f = f.parent
	}
	return f
}

// Closure is a compiled procedure: code plus its captured frame chain. It
// implements scheme.Procedure, so the tree-walker — Apply, map, thread
// thunks — calls it like any other procedure value.
type Closure struct {
	Code *Code
	Env  *frame
	Name scheme.Symbol
	eng  *Engine
}

// ApplyProc implements scheme.Procedure.
func (c *Closure) ApplyProc(in *scheme.Interp, ctx *core.Context, args []scheme.Value) (scheme.Value, error) {
	return c.eng.exec(ctx, c, args)
}

// ProcName implements scheme.Procedure.
func (c *Closure) ProcName() string { return string(c.Name) }

// Compiled implements scheme.CompiledProc for (compiled? p).
func (c *Closure) Compiled() bool { return true }

func (c *Closure) callName() string {
	if c.Name != "" {
		return string(c.Name)
	}
	return "#[procedure]"
}

// bindFrame builds the activation frame for a call, with the tree-walker's
// exact arity errors. args may be the caller's operand-stack window: it is
// read, not kept.
func bindFrame(c *Closure, args []scheme.Value) (*frame, error) {
	code := c.Code
	if !code.HasRest {
		if len(args) != code.NParams {
			return nil, scheme.Errorf("%s: want %d arguments, got %d",
				c.callName(), code.NParams, len(args))
		}
	} else if len(args) < code.NParams {
		return nil, scheme.Errorf("%s: want at least %d arguments, got %d",
			c.callName(), code.NParams, len(args))
	}
	fr := newFrame(code.NSlots, args[:code.NParams], c.Env)
	if code.HasRest {
		fr.slots[code.NParams] = scheme.List(args[code.NParams:]...)
	}
	return fr, nil
}

// nameValue gives an anonymous procedure the name its binding uses, as the
// tree-walker's define and letrec do.
func nameValue(v scheme.Value, name scheme.Symbol) {
	switch c := v.(type) {
	case *Closure:
		if c.Name == "" {
			c.Name = name
		}
	case *scheme.Closure:
		if c.Name == "" {
			c.Name = name
		}
	}
}

// saved is one suspended activation on the explicit call stack; vm→vm calls
// never recurse in Go, so non-tail Scheme recursion is heap-bounded.
type saved struct {
	code *Code
	pc   int
	fr   *frame
	base int
}

// exec runs a compiled closure to completion. Safepoints — calls, tail
// calls, backward branches — feed the thread's safe-point quantum, so
// preemption and stealing fire with the tree-walker's density.
func (e *Engine) exec(ctx *core.Context, clo *Closure, args []scheme.Value) (scheme.Value, error) {
	in := e.in
	fr, err := bindFrame(clo, args)
	if err != nil {
		return nil, err
	}
	code := clo.Code
	pc := 0
	base := 0
	var stack []scheme.Value
	var calls []saved
	// ops counts dispatched instructions locally; it is published where a
	// safepoint polls and at return, so a loop that never leaves this exec
	// still moves the process-wide counter.
	var ops uint64
	defer func() { dispatchOps.Add(ops) }()
	safepoint := func() {
		if in.Safepoint(ctx) {
			dispatchOps.Add(ops)
			ops = 0
		}
	}

	// Every slot of stack beyond its length is nil: whatever shortens the
	// stack clears what it vacates, so a dead operand pins nothing.
	push := func(v scheme.Value) { stack = append(stack, v) }
	pop := func() scheme.Value {
		n := len(stack) - 1
		v := stack[n]
		stack[n] = nil
		stack = stack[:n]
		return v
	}
	drop := func(to int) {
		clear(stack[to:])
		stack = stack[:to]
	}

	for {
		ins := code.Ops[pc]
		pc++
		ops++
		switch ins.Op {
		case OpConst:
			push(code.Consts[ins.A])
		case OpUnspec:
			push(scheme.Unspecified)
		case OpLocal:
			push(fr.at(int(ins.A)).slots[ins.B])
		case OpSetLocal:
			fr.at(int(ins.A)).slots[ins.B] = pop()
			push(scheme.Unspecified)
		case OpInitSlot:
			v := pop()
			if ins.B >= 0 {
				nameValue(v, code.Consts[ins.B].(scheme.Symbol))
			}
			fr.slots[ins.A] = v
		case OpGlobal:
			v, ok := code.cells[ins.A].Load()
			if !ok {
				return nil, scheme.Errorf("unbound variable: %s", code.Consts[ins.A])
			}
			push(v)
		case OpSetGlobal:
			if !code.cells[ins.A].Set(pop()) {
				return nil, scheme.Errorf("set!: unbound variable %s", code.Consts[ins.A])
			}
			push(scheme.Unspecified)
		case OpDefGlobal:
			v := pop()
			nameValue(v, code.Consts[ins.A].(scheme.Symbol))
			code.cells[ins.A].Define(v)
			push(scheme.Unspecified)
		case OpJump:
			t := int(ins.A)
			if t < pc {
				safepoint() // backward branch: loop safepoint
			}
			pc = t
		case OpJumpIfFalse:
			if !scheme.IsTruthy(pop()) {
				pc = int(ins.A)
			}
		case OpJumpTruthyKeep:
			if scheme.IsTruthy(stack[len(stack)-1]) {
				pc = int(ins.A)
			} else {
				pop()
			}
		case OpJumpFalsyKeep:
			if !scheme.IsTruthy(stack[len(stack)-1]) {
				pc = int(ins.A)
			} else {
				pop()
			}
		case OpJumpFalsyPop:
			if !scheme.IsTruthy(stack[len(stack)-1]) {
				pop()
				pc = int(ins.A)
			}
		case OpPop:
			pop()
		case OpDup:
			push(stack[len(stack)-1])
		case OpSwap:
			n := len(stack)
			stack[n-1], stack[n-2] = stack[n-2], stack[n-1]
		case OpClosure:
			sub := code.Subs[ins.A]
			push(&Closure{Code: sub, Env: fr, Name: sub.Name, eng: e})
		case OpCall, OpTailCall:
			safepoint()
			fnAt := len(stack) - int(ins.A) - 1
			fn := stack[fnAt]
			// The arguments stay where they were pushed: the callee binds or
			// borrows this window of the operand stack.
			window := stack[fnAt+1:]
			for i, a := range window {
				// Call sites collapse singleton multiple values, as the
				// tree-walker's evalArgs does.
				if mv, ok := a.(*scheme.MultiValues); ok && len(mv.Values) == 1 {
					window[i] = mv.Values[0]
				}
			}
			if callee, ok := fn.(*Closure); ok && callee.eng == e {
				nfr, err := bindFrame(callee, window)
				if err != nil {
					return nil, err
				}
				if ins.Op == OpTailCall {
					drop(base)
				} else {
					drop(fnAt)
					calls = append(calls, saved{code: code, pc: pc, fr: fr, base: base})
					base = fnAt
				}
				code, pc, fr = callee.Code, 0, nfr
				continue
			}
			// Foreign callee: a primitive, a tree closure, or another
			// engine's procedure. A tail call degrades to a plain call —
			// control always flows on to OpReturn.
			v, err := e.callForeign(ctx, fn, window)
			if err != nil {
				return nil, err
			}
			drop(fnAt)
			push(v)
		case OpReturn:
			v := pop()
			if len(calls) == 0 {
				return v, nil
			}
			n := len(calls) - 1
			s := calls[n]
			calls[n] = saved{}
			calls = calls[:n]
			drop(base)
			code, pc, fr, base = s.code, s.pc, s.fr, s.base
			push(v)
		case OpPushFrame:
			at := len(stack) - int(ins.B)
			fr = newFrame(int(ins.A), stack[at:], fr)
			drop(at)
		case OpPopFrame:
			fr = fr.parent
		case OpCaseMatch:
			key := stack[len(stack)-1]
			matched := false
			for _, d := range code.Consts[ins.A].([]scheme.Value) {
				if scheme.Eqv(key, d) {
					matched = true
					break
				}
			}
			if matched {
				pop()
			} else {
				pc = int(ins.B)
			}
		case OpPromise:
			sub := code.Subs[ins.A]
			push(scheme.NewPromise(&Closure{Code: sub, Env: fr, Name: sub.Name, eng: e}))
		case OpFork:
			vp := ctx.VP()
			if ins.A == 1 {
				v, err := scheme.CoerceVP(ctx, pop())
				if err != nil {
					return nil, err
				}
				vp = v
			}
			push(ctx.Fork(in.CloseThunk(pop()), vp))
		case OpCreateThread:
			push(ctx.CreateThread(in.CloseThunk(pop())))
		case OpFuture:
			push(ctx.Fork(in.CloseThunk(pop()), nil))
		case OpSpawn:
			n := int(ins.A)
			thunks := make([]core.Thunk, n)
			for i := n - 1; i >= 0; i-- {
				thunks[i] = in.CloseThunk(pop())
			}
			tsv := pop()
			ts, ok := tsv.(tspace.TupleSpace)
			if !ok {
				return nil, scheme.Errorf("spawn: not a tuple space: %s", scheme.WriteString(tsv))
			}
			threads, err := ts.Spawn(ctx, thunks...)
			if err != nil {
				return nil, err
			}
			out := make([]scheme.Value, len(threads))
			for i, t := range threads {
				out[i] = t
			}
			push(scheme.List(out...))
		case OpNoPreempt:
			thunk := pop()
			var v scheme.Value
			var callErr error
			ctx.WithoutPreemption(func() { v, callErr = e.callValue(ctx, thunk, nil) })
			if callErr != nil {
				return nil, callErr
			}
			push(v)
		case OpNoInterrupt:
			thunk := pop()
			var v scheme.Value
			var callErr error
			ctx.WithoutInterrupts(func() { v, callErr = e.callValue(ctx, thunk, nil) })
			if callErr != nil {
				return nil, callErr
			}
			push(v)
		case OpWithMutex:
			thunk := pop()
			mv := pop()
			m, ok := mv.(*synch.Mutex)
			if !ok {
				return nil, scheme.Errorf("with-mutex: not a mutex: %s", scheme.WriteString(mv))
			}
			v, err := func() (scheme.Value, error) {
				m.Acquire(ctx)
				defer m.Release()
				return e.callValue(ctx, thunk, nil)
			}()
			if err != nil {
				return nil, err
			}
			push(v)
		case OpFluid:
			thunk := pop()
			v := pop()
			sym := code.Consts[ins.A].(scheme.Symbol)
			var out scheme.Value
			var callErr error
			ctx.FluidLet(sym, v, func() { out, callErr = e.callValue(ctx, thunk, nil) })
			if callErr != nil {
				return nil, callErr
			}
			push(out)
		case OpAtomic:
			thunk := pop()
			v, err := in.RunAtomic(ctx, func() (scheme.Value, error) {
				return e.callValue(ctx, thunk, nil)
			})
			if err != nil {
				return nil, err
			}
			push(v)
		case OpTuple:
			spec := code.Consts[ins.A].(*tupleSpec)
			var body scheme.Value
			if spec.hasBody {
				body = pop()
			}
			exprVals := make([]scheme.Value, spec.nexpr)
			for i := spec.nexpr - 1; i >= 0; i-- {
				exprVals[i] = pop()
			}
			tsv := pop()
			ts, ok := tsv.(tspace.TupleSpace)
			if !ok {
				return nil, scheme.Errorf("%s: not a tuple space: %s", spec.name, scheme.WriteString(tsv))
			}
			tpl := make(tspace.Template, len(spec.fields))
			nx := 0
			for i, f := range spec.fields {
				switch f.kind {
				case fLit:
					tpl[i] = f.lit
				case fFormal:
					tpl[i] = tspace.F(f.name)
				case fExpr:
					tpl[i] = scheme.ToTupleValue(exprVals[nx])
					nx++
				}
			}
			tup, bind, err := in.MatchTuple(ctx, ts, tpl, spec.remove)
			if err != nil {
				return nil, err
			}
			if !spec.hasBody {
				push(scheme.List(tup...))
				break
			}
			bargs := make([]scheme.Value, len(spec.formals))
			for i, name := range spec.formals {
				bargs[i] = scheme.FromTupleValue(bind[name])
			}
			v, err := e.callValue(ctx, body, bargs)
			if err != nil {
				return nil, err
			}
			push(v)
		default:
			return nil, scheme.Errorf("vm: bad opcode %s", ins.Op)
		}
	}
}

// callValue invokes any procedure value — compiled closures re-enter exec,
// everything else routes through the tree-walker's Apply.
func (e *Engine) callValue(ctx *core.Context, fn scheme.Value, args []scheme.Value) (scheme.Value, error) {
	if clo, ok := fn.(*Closure); ok && clo.eng == e {
		return e.exec(ctx, clo, args)
	}
	return e.in.Apply(ctx, fn, args)
}

// callForeign applies a non-bytecode callee from the dispatch loop to args,
// a window of the operand stack. Primitives inline (they are the hot path)
// and borrow the window, as PrimFn's contract allows; any other procedure
// makes no such promise and gets a copy through Apply.
func (e *Engine) callForeign(ctx *core.Context, fn scheme.Value, args []scheme.Value) (scheme.Value, error) {
	if p, ok := fn.(*scheme.Primitive); ok {
		if len(args) < p.Min || (p.Max >= 0 && len(args) > p.Max) {
			return nil, scheme.Errorf("%s: bad argument count %d", p.Name, len(args))
		}
		return p.Fn(e.in, ctx, args)
	}
	return e.in.Apply(ctx, fn, append([]scheme.Value(nil), args...))
}
