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

// fixnumT is the type of an unboxed slot's sentinel: a slot of the operand
// stack whose value is fixnum holds an integer, in the same slot of nums.
type fixnumT struct{}

var fixnum scheme.Value = fixnumT{}

// operands is exec's operand stack. An integer that an arithmetic primitive
// computes in the dispatch loop is not boxed: its slot holds fixnum, and
// nums its value. It is boxed in place only where a Value leaves the loop
// — a primitive's window, a closure's free values, a box, a global, a
// thread, exec's result — so what a primitive borrows is still a []Value.
// nums is nil until the first integer call, then spans vals' capacity; it
// holds no pointers, so nothing has to clear it.
type operands struct {
	vals []scheme.Value
	nums []int64
}

func unboxed(v scheme.Value) bool { _, ok := v.(fixnumT); return ok }

// fit makes nums span vals' capacity.
func (s *operands) fit() {
	if n := cap(s.vals) - len(s.nums); n > 0 {
		s.nums = append(s.nums, make([]int64, n)...)
	}
}

func (s *operands) push(v scheme.Value) {
	s.vals = append(s.vals, v)
	if s.nums != nil && len(s.nums) < cap(s.vals) {
		s.fit()
	}
}

func (s *operands) pushInt(n int64) {
	s.vals = append(s.vals, fixnum)
	s.fit()
	s.nums[len(s.vals)-1] = n
}

// pushSlot pushes a copy of slot i, unboxed if it is.
func (s *operands) pushSlot(i int) {
	s.push(s.vals[i])
	if s.nums != nil {
		s.nums[len(s.vals)-1] = s.nums[i]
	}
}

// value answers slot i as a Value, boxing it in place if it is unboxed.
func (s *operands) value(i int) scheme.Value {
	if unboxed(s.vals[i]) {
		s.vals[i] = s.nums[i]
	}
	return s.vals[i]
}

// box boxes, in place, every slot from i up: they are leaving the loop.
func (s *operands) box(i int) {
	for ; i < len(s.vals); i++ {
		s.value(i)
	}
}

// pop removes the top slot and answers it as a Value.
func (s *operands) pop() scheme.Value {
	v := s.value(len(s.vals) - 1)
	s.discard()
	return v
}

// discard removes the top slot.
func (s *operands) discard() {
	n := len(s.vals) - 1
	s.vals[n] = nil
	s.vals = s.vals[:n]
}

// drop shortens the stack to n slots. Every slot of vals beyond its length
// is nil: whatever shortens the stack clears what it vacates, so a dead
// operand pins nothing.
func (s *operands) drop(n int) {
	for i := n; i < len(s.vals); i++ {
		s.vals[i] = nil
	}
	s.vals = s.vals[:n]
}

// move copies slot from over slot to.
func (s *operands) move(to, from int) {
	s.vals[to] = s.vals[from]
	if unboxed(s.vals[from]) {
		s.nums[to] = s.nums[from]
	}
}

// slide moves the slots from i up down to slot to and drops the rest.
func (s *operands) slide(to, i int) {
	n := copy(s.vals[to:], s.vals[i:])
	if s.nums != nil {
		copy(s.nums[to:], s.nums[i:len(s.vals)])
	}
	s.drop(to + n)
}

// ints answers whether every slot from i up is an integer, unboxed or not,
// and leaves each one's value in nums.
func (s *operands) ints(i int) bool {
	s.fit()
	for ; i < len(s.vals); i++ {
		switch x := s.vals[i].(type) {
		case fixnumT:
		case int64:
			s.nums[i] = x
		default:
			return false
		}
	}
	return true
}

// bind makes the slots from base up — a call's arguments — into the
// activation of c: it checks arity with the tree-walker's exact errors,
// conses the rest list in place, and extends the window to the procedure's
// NSlots locals.
func bind(c *Closure, s *operands, base int) error {
	code, nargs := c.Code, len(s.vals)-base
	if !code.HasRest {
		if nargs != code.NParams {
			return scheme.Errorf("%s: want %d arguments, got %d",
				c.callName(), code.NParams, nargs)
		}
	} else if nargs < code.NParams {
		return scheme.Errorf("%s: want at least %d arguments, got %d",
			c.callName(), code.NParams, nargs)
	} else {
		at := base + code.NParams
		s.box(at)
		rest := scheme.List(s.vals[at:]...)
		s.drop(at)
		s.push(rest)
	}
	s.vals = slices.Grow(s.vals, code.NSlots)[:base+code.NSlots]
	if s.nums != nil {
		s.fit()
	}
	return nil
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
// the NSlots slots of the operand stack from base up, below its operands,
// and die when it returns. Safepoints — calls, tail calls, backward branches — feed the
// thread's safe-point quantum, so preemption and stealing fire with the
// tree-walker's density.
func (e *Engine) exec(ctx *core.Context, clo *Closure, args []scheme.Value) (scheme.Value, error) {
	in := e.in
	s := operands{vals: append(make([]scheme.Value, 0, len(args)+16), args...)}
	if err := bind(clo, &s, 0); err != nil {
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
	// top is the top slot as it is: a truth test reads an unboxed integer
	// as true without boxing it, as IsTruthy reads anything but #f.
	top := func() scheme.Value { return s.vals[len(s.vals)-1] }

	for {
		ins := code.Ops[pc]
		pc++
		ops++
		switch ins.Op {
		case OpConst:
			s.push(code.Consts[ins.A])
		case OpUnspec:
			s.push(scheme.Unspecified)
		case OpLocal:
			s.pushSlot(base + int(ins.A))
		case OpFree:
			s.push(clo.free[ins.A])
		case OpSetLocal:
			n := len(s.vals) - 1
			if ins.B >= 0 {
				nameValue(s.vals[n], code.Consts[ins.B].(scheme.Symbol))
			}
			s.move(base+int(ins.A), n)
			s.discard()
		case OpBox:
			box := new(scheme.Cell)
			box.Define(s.pop())
			s.vals[base+int(ins.A)] = box
		case OpUnbox:
			n := len(s.vals) - 1
			s.vals[n], _ = s.vals[n].(*scheme.Cell).Load()
		case OpSetBox:
			box := s.pop().(*scheme.Cell)
			v := s.pop()
			if ins.B >= 0 {
				nameValue(v, code.Consts[ins.B].(scheme.Symbol))
			}
			box.Define(v)
		case OpGlobal:
			v, ok := code.cells[ins.A].Load()
			if !ok {
				return nil, scheme.Errorf("unbound variable: %s", code.Consts[ins.A])
			}
			s.push(v)
		case OpSetGlobal:
			if !code.cells[ins.A].Set(s.pop()) {
				return nil, scheme.Errorf("set!: unbound variable %s", code.Consts[ins.A])
			}
			s.push(scheme.Unspecified)
		case OpDefGlobal:
			v := s.pop()
			nameValue(v, code.Consts[ins.A].(scheme.Symbol))
			code.cells[ins.A].Define(v)
			s.push(scheme.Unspecified)
		case OpJump:
			t := int(ins.A)
			if t < pc {
				safepoint() // backward branch: loop safepoint
			}
			pc = t
		case OpJumpIfFalse:
			v := top()
			s.discard()
			if !scheme.IsTruthy(v) {
				pc = int(ins.A)
			}
		case OpJumpTruthyKeep:
			if scheme.IsTruthy(top()) {
				pc = int(ins.A)
			} else {
				s.discard()
			}
		case OpJumpFalsyKeep:
			if !scheme.IsTruthy(top()) {
				pc = int(ins.A)
			} else {
				s.discard()
			}
		case OpJumpFalsyPop:
			if !scheme.IsTruthy(top()) {
				s.discard()
				pc = int(ins.A)
			}
		case OpPop:
			s.discard()
		case OpDup:
			s.pushSlot(len(s.vals) - 1)
		case OpSwap:
			n := len(s.vals)
			s.vals[n-1], s.vals[n-2] = s.vals[n-2], s.vals[n-1]
			if s.nums != nil {
				s.nums[n-1], s.nums[n-2] = s.nums[n-2], s.nums[n-1]
			}
		case OpClosure:
			sub := code.Subs[ins.A]
			nc := &Closure{Code: sub, Name: sub.Name, eng: e}
			at := len(s.vals) - int(ins.B)
			s.box(at)
			nc.free = append(nc.inline[:0], s.vals[at:]...)
			s.drop(at)
			s.push(nc)
		case OpCall, OpTailCall:
			safepoint()
			fnAt := len(s.vals) - int(ins.A) - 1
			fn := s.vals[fnAt]
			// The arguments stay where they were pushed: a vm callee's
			// activation takes this window of the operand stack over, a
			// primitive borrows it.
			for i, a := range s.vals[fnAt+1:] {
				// Call sites collapse singleton multiple values, as the
				// tree-walker's evalArgs does.
				if mv, ok := a.(*scheme.MultiValues); ok && len(mv.Values) == 1 {
					s.vals[fnAt+1+i] = mv.Values[0]
				}
			}
			if callee, ok := fn.(*Closure); ok && callee.eng == e {
				// The arguments, unboxed ones included, slide down to the
				// new activation's base — over the callee, or over the whole
				// current activation for a tail call — and become its first
				// locals.
				if ins.Op == OpTailCall {
					s.slide(base, fnAt+1)
				} else {
					calls = append(calls, saved{clo: clo, pc: pc, base: base})
					base = fnAt
					s.slide(fnAt, fnAt+1)
				}
				if err := bind(callee, &s, base); err != nil {
					return nil, err
				}
				clo, code, pc = callee, callee.Code, 0
				continue
			}
			// A primitive with an int64 kernel, called on integers only,
			// runs on them unboxed, and its integer result stays unboxed.
			// Anything else — a float, a zero divisor, a bad argument
			// count, a rebound name — takes the generic path below.
			if p, ok := fn.(*scheme.Primitive); ok && p.Fixnum != nil &&
				int(ins.A) >= p.Min && (p.Max < 0 || int(ins.A) <= p.Max) && s.ints(fnAt+1) {
				if n, v, ok := p.Fixnum(s.nums[fnAt+1 : len(s.vals)]); ok {
					s.drop(fnAt)
					if v != nil {
						s.push(v)
					} else {
						s.pushInt(n)
					}
					continue
				}
			}
			// Foreign callee: a primitive, a tree closure, or another
			// engine's procedure. A tail call degrades to a plain call —
			// control always flows on to OpReturn.
			s.box(fnAt)
			v, err := e.callForeign(ctx, s.vals[fnAt], s.vals[fnAt+1:])
			if err != nil {
				return nil, err
			}
			s.drop(fnAt)
			s.push(v)
		case OpReturn:
			n := len(s.vals) - 1
			if len(calls) == 0 {
				return s.value(n), nil
			}
			c := len(calls) - 1
			r := calls[c]
			calls[c] = saved{}
			calls = calls[:c]
			s.move(base, n) // the result lands where the callee was
			s.drop(base + 1)
			clo, code, pc, base = r.clo, r.clo.Code, r.pc, r.base
		case OpCaseMatch:
			key := s.value(len(s.vals) - 1)
			matched := false
			for _, d := range code.Consts[ins.A].([]scheme.Value) {
				if scheme.Eqv(key, d) {
					matched = true
					break
				}
			}
			if matched {
				s.discard()
			} else {
				pc = int(ins.B)
			}
		case OpPromise:
			s.push(scheme.NewPromise(s.pop()))
		case OpFork:
			vp := ctx.VP()
			if ins.A == 1 {
				v, err := scheme.CoerceVP(ctx, s.pop())
				if err != nil {
					return nil, err
				}
				vp = v
			}
			s.push(ctx.Fork(in.CloseThunk(s.pop()), vp))
		case OpCreateThread:
			s.push(ctx.CreateThread(in.CloseThunk(s.pop())))
		case OpFuture:
			s.push(ctx.Fork(in.CloseThunk(s.pop()), nil))
		case OpSpawn:
			n := int(ins.A)
			thunks := make([]core.Thunk, n)
			for i := n - 1; i >= 0; i-- {
				thunks[i] = in.CloseThunk(s.pop())
			}
			tsv := s.pop()
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
			s.push(scheme.List(out...))
		case OpNoPreempt:
			thunk := s.pop()
			var v scheme.Value
			var callErr error
			ctx.WithoutPreemption(func() { v, callErr = e.callValue(ctx, thunk, nil) })
			if callErr != nil {
				return nil, callErr
			}
			s.push(v)
		case OpNoInterrupt:
			thunk := s.pop()
			var v scheme.Value
			var callErr error
			ctx.WithoutInterrupts(func() { v, callErr = e.callValue(ctx, thunk, nil) })
			if callErr != nil {
				return nil, callErr
			}
			s.push(v)
		case OpWithMutex:
			thunk := s.pop()
			mv := s.pop()
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
			s.push(v)
		case OpFluid:
			thunk := s.pop()
			v := s.pop()
			sym := code.Consts[ins.A].(scheme.Symbol)
			var out scheme.Value
			var callErr error
			ctx.FluidLet(sym, v, func() { out, callErr = e.callValue(ctx, thunk, nil) })
			if callErr != nil {
				return nil, callErr
			}
			s.push(out)
		case OpAtomic:
			thunk := s.pop()
			v, err := in.RunAtomic(ctx, func() (scheme.Value, error) {
				return e.callValue(ctx, thunk, nil)
			})
			if err != nil {
				return nil, err
			}
			s.push(v)
		case OpTuple:
			spec := code.Consts[ins.A].(*tupleSpec)
			var body scheme.Value
			if spec.hasBody {
				body = s.pop()
			}
			exprVals := make([]scheme.Value, spec.nexpr)
			for i := spec.nexpr - 1; i >= 0; i-- {
				exprVals[i] = s.pop()
			}
			tsv := s.pop()
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
				s.push(scheme.List(tup...))
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
			s.push(v)
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
