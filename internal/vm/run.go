package vm

import (
	"slices"

	"repro/internal/core"
	"repro/internal/scheme"
	"repro/internal/synch"
	"repro/internal/tspace"
)

// inlineFree is how many captured values a closure carries inside itself:
// closures that small — nearly all of them — are one allocation.
const inlineFree = 4

// Closure is a compiled procedure: code plus the values of its free
// variables, copied when the closure was made (flat closure). A variable
// that is both captured and assigned is copied as its box, a
// *scheme.Cell, so every closure and the binding's own activation share
// it. Closure implements scheme.Procedure, so the tree-walker — Apply, map,
// thread thunks — calls it like any other procedure value.
type Closure struct {
	Code   *Code
	Name   scheme.Symbol
	eng    *Engine
	free   []scheme.Value // inline[:n], or its own array past inlineFree
	inline [inlineFree]scheme.Value
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

// bind makes stack[base:] — a call's arguments — into the activation of c:
// it checks arity with the tree-walker's exact errors, conses the rest list
// in place, and extends the window to the procedure's NSlots locals.
func bind(c *Closure, stack []scheme.Value, base int) ([]scheme.Value, error) {
	code, nargs := c.Code, len(stack)-base
	if !code.HasRest {
		if nargs != code.NParams {
			return nil, scheme.Errorf("%s: want %d arguments, got %d",
				c.callName(), code.NParams, nargs)
		}
	} else if nargs < code.NParams {
		return nil, scheme.Errorf("%s: want at least %d arguments, got %d",
			c.callName(), code.NParams, nargs)
	} else {
		at := base + code.NParams
		rest := scheme.List(stack[at:]...)
		clear(stack[at:])
		stack = append(stack[:at], rest)
	}
	return slices.Grow(stack, code.NSlots)[:base+code.NSlots], nil
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
	clo  *Closure
	pc   int
	base int
}

// exec runs a compiled closure to completion. An activation's locals are
// the NSlots values at stack[base:], below its operands, and die when it
// returns. Safepoints — calls, tail calls, backward branches — feed the
// thread's safe-point quantum, so preemption and stealing fire with the
// tree-walker's density.
func (e *Engine) exec(ctx *core.Context, clo *Closure, args []scheme.Value) (scheme.Value, error) {
	in := e.in
	stack, err := bind(clo, append(make([]scheme.Value, 0, len(args)+16), args...), 0)
	if err != nil {
		return nil, err
	}
	code := clo.Code
	pc := 0
	base := 0
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
			push(stack[base+int(ins.A)])
		case OpFree:
			push(clo.free[ins.A])
		case OpSetLocal:
			v := pop()
			if ins.B >= 0 {
				nameValue(v, code.Consts[ins.B].(scheme.Symbol))
			}
			stack[base+int(ins.A)] = v
		case OpBox:
			box := new(scheme.Cell)
			box.Define(pop())
			stack[base+int(ins.A)] = box
		case OpUnbox:
			top := len(stack) - 1
			stack[top], _ = stack[top].(*scheme.Cell).Load()
		case OpSetBox:
			box := pop().(*scheme.Cell)
			v := pop()
			if ins.B >= 0 {
				nameValue(v, code.Consts[ins.B].(scheme.Symbol))
			}
			box.Define(v)
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
			nc := &Closure{Code: sub, Name: sub.Name, eng: e}
			at := len(stack) - int(ins.B)
			nc.free = append(nc.inline[:0], stack[at:]...)
			drop(at)
			push(nc)
		case OpCall, OpTailCall:
			safepoint()
			fnAt := len(stack) - int(ins.A) - 1
			fn := stack[fnAt]
			// The arguments stay where they were pushed: a vm callee's
			// activation takes this window of the operand stack over, a
			// primitive borrows it.
			window := stack[fnAt+1:]
			for i, a := range window {
				// Call sites collapse singleton multiple values, as the
				// tree-walker's evalArgs does.
				if mv, ok := a.(*scheme.MultiValues); ok && len(mv.Values) == 1 {
					window[i] = mv.Values[0]
				}
			}
			if callee, ok := fn.(*Closure); ok && callee.eng == e {
				// The arguments slide down to the new activation's base —
				// over the callee, or over the whole current activation for
				// a tail call — and become its first locals.
				if ins.Op == OpTailCall {
					drop(base + copy(stack[base:], window))
				} else {
					calls = append(calls, saved{clo: clo, pc: pc, base: base})
					base = fnAt
					drop(fnAt + copy(stack[fnAt:], window))
				}
				if stack, err = bind(callee, stack, base); err != nil {
					return nil, err
				}
				clo, code, pc = callee, callee.Code, 0
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
			clo, code, pc, base = s.clo, s.clo.Code, s.pc, s.base
			push(v)
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
			push(scheme.NewPromise(pop()))
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
