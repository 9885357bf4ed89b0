package vm

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/scheme"
)

// errUnsupported marks forms the compiler declines; the engine falls back
// to the tree-walker for the whole toplevel form, so declining is always
// safe — the reference semantics (including its error behavior) take over.
var errUnsupported = errors.New("vm: unsupported form")

func unsupportedf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errUnsupported, fmt.Sprintf(format, args...))
}

// Compile lowers one toplevel datum to bytecode. It returns errUnsupported
// (wrapped) for anything outside the compiled subset: quasiquote, internal
// defines that are not a body prefix, and malformed special forms (the
// tree-walker reproduces their exact error behavior).
//
// The capture analysis is the compiler's own first run: it records, for
// every binding, whether a nested procedure refers to it and whether
// anything assigns it, and collects each procedure's free variables. When
// some binding is both captured and assigned, a second run boxes exactly
// those; the two runs make the same bindings in the same order.
func Compile(expr scheme.Value) (code *Code, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = unsupportedf("compiler panic: %v", r)
		}
	}()
	c := &compiler{}
	if code, err = c.toplevel(expr); err != nil || !c.anyBoxed() {
		return code, err
	}
	c = &compiler{boxed: c.uses}
	return c.toplevel(expr)
}

func (c *compiler) toplevel(expr scheme.Value) (*Code, error) {
	fc := newFn("", 0, false)
	if err := c.expr(fc, nil, expr, true); err != nil {
		return nil, err
	}
	fc.emit(OpReturn, 0, 0)
	return fc.code(), nil
}

// ---------------------------------------------------------------------------
// code builder

type fnCode struct {
	name     scheme.Symbol
	nparams  int
	hasRest  bool
	top      int // locals in use at the point being compiled
	nslots   int // the most locals ever in use at once
	free     []scheme.Symbol
	boxed    []scheme.Symbol
	ops      []Instr
	consts   []scheme.Value
	constIdx map[scheme.Value]int32
	subs     []*Code
}

func newFn(name scheme.Symbol, nparams int, hasRest bool) *fnCode {
	return &fnCode{name: name, nparams: nparams, hasRest: hasRest,
		constIdx: make(map[scheme.Value]int32)}
}

func (f *fnCode) emit(op Opcode, a, b int32) int {
	f.ops = append(f.ops, Instr{Op: op, A: a, B: b})
	return len(f.ops) - 1
}

// patchA points a previously emitted jump at the next instruction.
func (f *fnCode) patchA(at int) { f.ops[at].A = int32(len(f.ops)) }
func (f *fnCode) patchB(at int) { f.ops[at].B = int32(len(f.ops)) }

// konst interns a constant; immutable comparable kinds pool, the rest
// append.
func (f *fnCode) konst(v scheme.Value) int32 {
	switch v.(type) {
	case scheme.Symbol, int64, float64, bool, scheme.Char:
		if i, ok := f.constIdx[v]; ok {
			return i
		}
		i := int32(len(f.consts))
		f.consts = append(f.consts, v)
		f.constIdx[v] = i
		return i
	}
	f.consts = append(f.consts, v)
	return int32(len(f.consts) - 1)
}

func (f *fnCode) code() *Code {
	return &Code{Name: f.name, Ops: f.ops, Consts: f.consts, Subs: f.subs,
		NParams: f.nparams, HasRest: f.hasRest, NSlots: f.nslots,
		Free: f.free, Boxed: f.boxed}
}

// freeIndex answers sym's index among f's free variables, adding it.
func (f *fnCode) freeIndex(sym scheme.Symbol) int32 {
	i := slices.Index(f.free, sym)
	if i < 0 {
		i = len(f.free)
		f.free = append(f.free, sym)
	}
	return int32(i)
}

// ---------------------------------------------------------------------------
// lexical scopes: a procedure's scope and the scopes of the binding forms
// inside it all take slots from that procedure's locals; a binding form's
// slots are free again once its body is compiled.

// binding is one lexical variable: its local slot and its place in the
// order the compiler makes bindings in.
type binding struct {
	slot, id int
	boxed    bool
}

type scope struct {
	parent *scope
	fn     *fnCode // the procedure whose locals hold this scope's slots
	mark   int     // fn.top when the scope opened
	names  map[scheme.Symbol]*binding
	// pending marks internal-define slots whose define has not executed
	// yet; a same-procedure reference to one would diverge from the
	// tree-walker (which resolves it to an outer binding), so it declines.
	// A nested procedure may refer to one: the define is an assignment, so
	// the variable is boxed and the closure sees the value once it is set.
	pending map[scheme.Symbol]bool
}

func newScope(parent *scope, fn *fnCode) *scope {
	return &scope{parent: parent, fn: fn, mark: fn.top,
		names: make(map[scheme.Symbol]*binding), pending: make(map[scheme.Symbol]bool)}
}

// leave frees the scope's slots for the code compiled after it.
func (sc *scope) leave() { sc.fn.top = sc.mark }

// What the analysis run records about a binding.
const (
	captured uint8 = 1 << iota // a nested procedure refers to it
	assigned                   // set!, or stored after a closure may have copied it
)

type compiler struct {
	uses  []uint8 // per binding id, in this run
	boxed []uint8 // per binding id, from the analysis run; nil in that run
}

func (c *compiler) anyBoxed() bool {
	return slices.Contains(c.uses, captured|assigned)
}

// bind makes sym a new binding in sc, in the next free slot.
func (c *compiler) bind(sc *scope, sym scheme.Symbol) *binding {
	fn := sc.fn
	b := &binding{slot: fn.top, id: len(c.uses)}
	b.boxed = b.id < len(c.boxed) && c.boxed[b.id] == captured|assigned
	if b.boxed {
		fn.boxed = append(fn.boxed, sym)
	}
	c.uses = append(c.uses, 0)
	fn.top++
	fn.nslots = max(fn.nslots, fn.top)
	sc.names[sym] = b
	return b
}

// lookup finds the binding sym names at sc, in procedure fc; nil is a
// global. local is false when the binding belongs to an enclosing procedure
// and is reached through fc's free variables; pending, when it is a define
// of fc's that has not run yet.
func (c *compiler) lookup(fc *fnCode, sc *scope, sym scheme.Symbol) (b *binding, local, pending bool) {
	for s := sc; s != nil; s = s.parent {
		if b, ok := s.names[sym]; ok {
			if s.fn != fc {
				c.uses[b.id] |= captured
				return b, false, false
			}
			return b, true, s.pending[sym]
		}
	}
	return nil, false, false
}

// load pushes what holds sym at sc: a global's value, or a lexical's slot
// or free variable — its box, when it is boxed.
func (c *compiler) load(fc *fnCode, sc *scope, sym scheme.Symbol) (b *binding, pending bool) {
	b, local, pending := c.lookup(fc, sc, sym)
	switch {
	case b == nil:
		fc.emit(OpGlobal, fc.konst(sym), 0)
	case local:
		fc.emit(OpLocal, int32(b.slot), 0)
	default:
		fc.emit(OpFree, fc.freeIndex(sym), 0)
	}
	return b, pending
}

// ref pushes sym's value. Only a closure being made may load a pending
// define, which is boxed: the closure sees the value once it is set.
func (c *compiler) ref(fc *fnCode, sc *scope, sym scheme.Symbol) error {
	b, pending := c.load(fc, sc, sym)
	if pending {
		return unsupportedf("reference to pending define %s", sym)
	}
	if b != nil && b.boxed {
		fc.emit(OpUnbox, 0, 0)
	}
	return nil
}

// assign pops into the lexical sym, naming an unnamed closure after
// Consts[name] when name >= 0; ok is false when sym is a global.
func (c *compiler) assign(fc *fnCode, sc *scope, sym scheme.Symbol, name int32) (ok bool, err error) {
	b, local, pending := c.lookup(fc, sc, sym)
	switch {
	case pending:
		return true, unsupportedf("set! of pending define %s", sym)
	case b == nil:
		return false, nil
	}
	c.uses[b.id] |= assigned
	if local && !b.boxed {
		fc.emit(OpSetLocal, int32(b.slot), name)
		return true, nil
	}
	// Boxed, or captured and so boxed once the analysis run is done.
	c.load(fc, sc, sym)
	fc.emit(OpSetBox, 0, name)
	return true, nil
}

// initial pops into b's slot: the value it is bound to, boxed if need be.
func initial(fc *fnCode, b *binding) {
	if b.boxed {
		fc.emit(OpBox, int32(b.slot), 0)
	} else {
		fc.emit(OpSetLocal, int32(b.slot), -1)
	}
}

// bindValues binds names in sc to the len(names) values on top of the
// stack, the last name to the top one.
func (c *compiler) bindValues(fc *fnCode, sc *scope, names []scheme.Symbol) {
	bs := make([]*binding, len(names))
	for i, n := range names {
		bs[i] = c.bind(sc, n)
	}
	for i := len(bs) - 1; i >= 0; i-- {
		initial(fc, bs[i])
	}
}

// ---------------------------------------------------------------------------
// compiler

func (c *compiler) expr(fc *fnCode, sc *scope, x scheme.Value, tail bool) error {
	switch v := x.(type) {
	case scheme.Symbol:
		return c.ref(fc, sc, v)
	case *scheme.Pair:
		if head, ok := v.Car.(scheme.Symbol); ok && scheme.IsSpecialForm(head) {
			return c.form(fc, sc, head, v, tail)
		}
		return c.application(fc, sc, v, tail)
	default:
		if scheme.IsEmptyList(x) {
			return unsupportedf("cannot evaluate ()")
		}
		fc.emit(OpConst, fc.konst(x), 0)
		return nil
	}
}

func (c *compiler) application(fc *fnCode, sc *scope, form *scheme.Pair, tail bool) error {
	args, err := scheme.ListToSlice(form.Cdr)
	if err != nil {
		return unsupportedf("improper argument list")
	}
	if err := c.expr(fc, sc, form.Car, false); err != nil {
		return err
	}
	for _, a := range args {
		if err := c.expr(fc, sc, a, false); err != nil {
			return err
		}
	}
	op := OpCall
	if tail {
		op = OpTailCall
	}
	fc.emit(op, int32(len(args)), 0)
	return nil
}

// seq compiles an expression sequence (begin in expression position, cond
// and case clause bodies); internal defines are not legal here — the form
// declines and the tree-walker takes it.
func (c *compiler) seq(fc *fnCode, sc *scope, forms []scheme.Value, tail bool) error {
	if len(forms) == 0 {
		fc.emit(OpUnspec, 0, 0)
		return nil
	}
	for i := 0; i < len(forms)-1; i++ {
		if err := c.expr(fc, sc, forms[i], false); err != nil {
			return err
		}
		fc.emit(OpPop, 0, 0)
	}
	return c.expr(fc, sc, forms[len(forms)-1], tail)
}

func (c *compiler) form(fc *fnCode, sc *scope, head scheme.Symbol, form *scheme.Pair, tail bool) error {
	rest, err := scheme.ListToSlice(form.Cdr)
	if err != nil {
		return unsupportedf("%s: improper form", head)
	}
	switch head {
	case "quote":
		if len(rest) != 1 {
			return unsupportedf("bad quote")
		}
		fc.emit(OpConst, fc.konst(rest[0]), 0)
		return nil

	case "if":
		if len(rest) < 2 || len(rest) > 3 {
			return unsupportedf("bad if")
		}
		if err := c.expr(fc, sc, rest[0], false); err != nil {
			return err
		}
		jElse := fc.emit(OpJumpIfFalse, 0, 0)
		if err := c.expr(fc, sc, rest[1], tail); err != nil {
			return err
		}
		jEnd := fc.emit(OpJump, 0, 0)
		fc.patchA(jElse)
		if len(rest) == 3 {
			if err := c.expr(fc, sc, rest[2], tail); err != nil {
				return err
			}
		} else {
			fc.emit(OpUnspec, 0, 0)
		}
		fc.patchA(jEnd)
		return nil

	case "define":
		if sc != nil {
			// Local defines are handled at body positions (compileBody);
			// anywhere else the tree-walker's runtime-define semantics take
			// over via fallback.
			return unsupportedf("define outside a body prefix")
		}
		return c.globalDefine(fc, rest)

	case "set!":
		if len(rest) != 2 {
			return unsupportedf("bad set!")
		}
		sym, ok := rest[0].(scheme.Symbol)
		if !ok {
			return unsupportedf("bad set! target")
		}
		if err := c.expr(fc, sc, rest[1], false); err != nil {
			return err
		}
		if ok, err := c.assign(fc, sc, sym, -1); err != nil {
			return err
		} else if ok {
			fc.emit(OpUnspec, 0, 0)
		} else {
			fc.emit(OpSetGlobal, fc.konst(sym), 0)
		}
		return nil

	case "lambda", "named-lambda":
		// The tree-walker treats named-lambda identically to lambda (the
		// head of the spec list is just the first parameter).
		if len(rest) < 1 {
			return unsupportedf("bad lambda")
		}
		return c.lambdaSub(fc, sc, "", rest[0], rest[1:])

	case "begin", "block":
		return c.seq(fc, sc, rest, tail)

	case "let":
		return c.let(fc, sc, rest, tail)
	case "let*":
		return c.letStar(fc, sc, rest, tail)
	case "letrec":
		return c.letrec(fc, sc, rest, tail)
	case "cond":
		return c.cond(fc, sc, rest, tail)
	case "case":
		return c.caseForm(fc, sc, rest, tail)

	case "and":
		if len(rest) == 0 {
			fc.emit(OpConst, fc.konst(true), 0)
			return nil
		}
		var ends []int
		for i := 0; i < len(rest)-1; i++ {
			if err := c.expr(fc, sc, rest[i], false); err != nil {
				return err
			}
			ends = append(ends, fc.emit(OpJumpFalsyKeep, 0, 0))
		}
		if err := c.expr(fc, sc, rest[len(rest)-1], tail); err != nil {
			return err
		}
		for _, j := range ends {
			fc.patchA(j)
		}
		return nil

	case "or":
		if len(rest) == 0 {
			fc.emit(OpConst, fc.konst(false), 0)
			return nil
		}
		var ends []int
		for i := 0; i < len(rest)-1; i++ {
			if err := c.expr(fc, sc, rest[i], false); err != nil {
				return err
			}
			ends = append(ends, fc.emit(OpJumpTruthyKeep, 0, 0))
		}
		if err := c.expr(fc, sc, rest[len(rest)-1], tail); err != nil {
			return err
		}
		for _, j := range ends {
			fc.patchA(j)
		}
		return nil

	case "when", "unless":
		if len(rest) < 1 {
			return unsupportedf("bad %s", head)
		}
		if err := c.expr(fc, sc, rest[0], false); err != nil {
			return err
		}
		jSkip := fc.emit(OpJumpIfFalse, 0, 0)
		if head == "when" {
			if err := c.seq(fc, sc, rest[1:], tail); err != nil {
				return err
			}
			jEnd := fc.emit(OpJump, 0, 0)
			fc.patchA(jSkip)
			fc.emit(OpUnspec, 0, 0)
			fc.patchA(jEnd)
		} else {
			fc.emit(OpUnspec, 0, 0)
			jEnd := fc.emit(OpJump, 0, 0)
			fc.patchA(jSkip)
			if err := c.seq(fc, sc, rest[1:], tail); err != nil {
				return err
			}
			fc.patchA(jEnd)
		}
		return nil

	case "do":
		return c.doLoop(fc, sc, rest)

	case "delay":
		if len(rest) != 1 {
			return unsupportedf("bad delay")
		}
		err := c.thunkSub(fc, sc, func(sub *fnCode, subSc *scope) error {
			return c.expr(sub, subSc, rest[0], true)
		})
		if err != nil {
			return err
		}
		fc.emit(OpPromise, 0, 0)
		return nil

	case "quasiquote":
		return unsupportedf("quasiquote")

	case "fork-thread":
		if len(rest) < 1 || len(rest) > 2 {
			return unsupportedf("bad fork-thread")
		}
		err := c.thunkSub(fc, sc, func(sub *fnCode, subSc *scope) error {
			return c.expr(sub, subSc, rest[0], true)
		})
		if err != nil {
			return err
		}
		hasVP := int32(0)
		if len(rest) == 2 {
			hasVP = 1
			if err := c.expr(fc, sc, rest[1], false); err != nil {
				return err
			}
		}
		fc.emit(OpFork, hasVP, 0)
		return nil

	case "create-thread", "future":
		if len(rest) != 1 {
			return unsupportedf("bad %s", head)
		}
		err := c.thunkSub(fc, sc, func(sub *fnCode, subSc *scope) error {
			return c.expr(sub, subSc, rest[0], true)
		})
		if err != nil {
			return err
		}
		if head == "future" {
			fc.emit(OpFuture, 0, 0)
		} else {
			fc.emit(OpCreateThread, 0, 0)
		}
		return nil

	case "spawn":
		if len(rest) != 2 {
			return unsupportedf("bad spawn")
		}
		exprs, err := scheme.ListToSlice(rest[1])
		if err != nil {
			return unsupportedf("bad spawn")
		}
		if err := c.expr(fc, sc, rest[0], false); err != nil {
			return err
		}
		for _, e := range exprs {
			e := e
			err := c.thunkSub(fc, sc, func(sub *fnCode, subSc *scope) error {
				return c.expr(sub, subSc, e, true)
			})
			if err != nil {
				return err
			}
		}
		fc.emit(OpSpawn, int32(len(exprs)), 0)
		return nil

	case "without-preemption", "without-interrupts":
		// The body becomes a thunk; the tree-walker evaluates these bodies
		// in the enclosing env, so internal defines decline (fallback keeps
		// the define-into-enclosing-frame semantics).
		err := c.thunkSub(fc, sc, func(sub *fnCode, subSc *scope) error {
			return c.seq(sub, subSc, rest, false)
		})
		if err != nil {
			return err
		}
		if head == "without-preemption" {
			fc.emit(OpNoPreempt, 0, 0)
		} else {
			fc.emit(OpNoInterrupt, 0, 0)
		}
		return nil

	case "with-mutex":
		if len(rest) < 1 {
			return unsupportedf("bad with-mutex")
		}
		if err := c.expr(fc, sc, rest[0], false); err != nil {
			return err
		}
		err := c.thunkSub(fc, sc, func(sub *fnCode, subSc *scope) error {
			return c.seq(sub, subSc, rest[1:], false)
		})
		if err != nil {
			return err
		}
		fc.emit(OpWithMutex, 0, 0)
		return nil

	case "fluid-let":
		if len(rest) < 1 {
			return unsupportedf("bad fluid-let")
		}
		names, inits, err := parseBindings(rest[0])
		if err != nil {
			return err
		}
		return c.fluidLet(fc, sc, names, inits, rest[1:])

	case "atomic":
		err := c.thunkSub(fc, sc, func(sub *fnCode, subSc *scope) error {
			return c.seq(sub, subSc, rest, false)
		})
		if err != nil {
			return err
		}
		fc.emit(OpAtomic, 0, 0)
		return nil

	case "get", "rd":
		return c.tupleForm(fc, sc, head, rest)

	default:
		return unsupportedf("special form %s", head)
	}
}

// globalDefine compiles a toplevel define (the global frame is a runtime
// map, so any toplevel position works, mirroring the tree-walker).
func (c *compiler) globalDefine(fc *fnCode, rest []scheme.Value) error {
	if len(rest) < 1 {
		return unsupportedf("bad define")
	}
	switch target := rest[0].(type) {
	case scheme.Symbol:
		// The tree-walker only evaluates the init when there are exactly
		// two operands; extra operands leave the variable unspecified.
		if len(rest) == 2 {
			if err := c.expr(fc, nil, rest[1], false); err != nil {
				return err
			}
		} else {
			fc.emit(OpUnspec, 0, 0)
		}
		fc.emit(OpDefGlobal, fc.konst(target), 0)
		return nil
	case *scheme.Pair:
		name, ok := target.Car.(scheme.Symbol)
		if !ok {
			return unsupportedf("bad define")
		}
		if err := c.lambdaSub(fc, nil, name, target.Cdr, rest[1:]); err != nil {
			return err
		}
		fc.emit(OpDefGlobal, fc.konst(name), 0)
		return nil
	default:
		return unsupportedf("bad define")
	}
}

// ---------------------------------------------------------------------------
// binding forms

func parseBindings(v scheme.Value) ([]scheme.Symbol, []scheme.Value, error) {
	pairs, err := scheme.ListToSlice(v)
	if err != nil {
		return nil, nil, unsupportedf("bad bindings")
	}
	names := make([]scheme.Symbol, len(pairs))
	inits := make([]scheme.Value, len(pairs))
	for i, b := range pairs {
		bs, err := scheme.ListToSlice(b)
		if err != nil || len(bs) < 1 || len(bs) > 2 {
			return nil, nil, unsupportedf("bad binding")
		}
		s, ok := bs[0].(scheme.Symbol)
		if !ok {
			return nil, nil, unsupportedf("bad binding name")
		}
		names[i] = s
		if len(bs) == 2 {
			inits[i] = bs[1]
		} else {
			inits[i] = scheme.Unspecified
		}
	}
	return names, inits, nil
}

func (c *compiler) let(fc *fnCode, sc *scope, rest []scheme.Value, tail bool) error {
	if len(rest) < 1 {
		return unsupportedf("bad let")
	}
	if name, ok := rest[0].(scheme.Symbol); ok {
		// Named let desugars to the tree-walker's exact env shape:
		// ((letrec ((name (lambda (vars...) body...))) name) inits...)
		if len(rest) < 2 {
			return unsupportedf("bad named let")
		}
		names, inits, err := parseBindings(rest[1])
		if err != nil {
			return err
		}
		params := make([]scheme.Value, len(names))
		initVals := make([]scheme.Value, len(inits))
		for i := range names {
			params[i] = names[i]
			initVals[i] = inits[i]
		}
		lambda := scheme.Cons(scheme.Symbol("lambda"),
			scheme.Cons(scheme.List(params...), scheme.List(rest[2:]...)))
		letrec := scheme.List(scheme.Symbol("letrec"),
			scheme.List(scheme.List(name, lambda)), name)
		call := scheme.Cons(letrec, scheme.List(initVals...))
		return c.expr(fc, sc, call, tail)
	}
	names, inits, err := parseBindings(rest[0])
	if err != nil {
		return err
	}
	items, defs, err := bodyItems(rest[1:])
	if err != nil {
		return err
	}
	for _, init := range inits {
		if err := c.expr(fc, sc, init, false); err != nil {
			return err
		}
	}
	newSc := newScope(sc, fc)
	defer newSc.leave()
	c.bindValues(fc, newSc, names)
	c.defineSlots(fc, newSc, defs)
	return c.compileBody(fc, newSc, items, tail)
}

func (c *compiler) letStar(fc *fnCode, sc *scope, rest []scheme.Value, tail bool) error {
	if len(rest) < 1 {
		return unsupportedf("bad let*")
	}
	names, inits, err := parseBindings(rest[0])
	if err != nil {
		return err
	}
	if len(names) == 0 {
		// The tree-walker runs a zero-binding let* body in the enclosing
		// env (no new frame), like an expression-position begin.
		return c.seq(fc, sc, rest[1:], tail)
	}
	// Desugar to nested single-binding lets — the tree-walker's frame
	// chain exactly.
	body := scheme.List(rest[1:]...)
	var inner scheme.Value
	if len(names) == 1 {
		inner = scheme.Cons(scheme.Symbol("let"),
			scheme.Cons(scheme.List(scheme.List(names[0], inits[0])), body))
	} else {
		bindDatums := make([]scheme.Value, len(names)-1)
		for i := 1; i < len(names); i++ {
			bindDatums[i-1] = scheme.List(names[i], inits[i])
		}
		rest := scheme.Cons(scheme.Symbol("let*"),
			scheme.Cons(scheme.List(bindDatums...), body))
		inner = scheme.List(scheme.Symbol("let"),
			scheme.List(scheme.List(names[0], inits[0])), rest)
	}
	p, _ := inner.(*scheme.Pair)
	return c.form(fc, sc, p.Car.(scheme.Symbol), p, tail)
}

func (c *compiler) letrec(fc *fnCode, sc *scope, rest []scheme.Value, tail bool) error {
	if len(rest) < 1 {
		return unsupportedf("bad letrec")
	}
	names, inits, err := parseBindings(rest[0])
	if err != nil {
		return err
	}
	items, defs, err := bodyItems(rest[1:])
	if err != nil {
		return err
	}
	newSc := newScope(sc, fc)
	defer newSc.leave()
	for _, n := range names {
		// letrec slots read Unspecified before init — tree parity
		fc.emit(OpUnspec, 0, 0)
		initial(fc, c.bind(newSc, n))
	}
	c.defineSlots(fc, newSc, defs)
	for i, init := range inits {
		if err := c.expr(fc, newSc, init, false); err != nil {
			return err
		}
		if _, err := c.assign(fc, newSc, names[i], fc.konst(names[i])); err != nil {
			return err
		}
	}
	return c.compileBody(fc, newSc, items, tail)
}

func (c *compiler) cond(fc *fnCode, sc *scope, clauses []scheme.Value, tail bool) error {
	var ends []int
	for _, cl := range clauses {
		parts, err := scheme.ListToSlice(cl)
		if err != nil || len(parts) == 0 {
			return unsupportedf("bad cond clause")
		}
		if s, ok := parts[0].(scheme.Symbol); ok && s == "else" {
			if err := c.seq(fc, sc, parts[1:], tail); err != nil {
				return err
			}
			for _, j := range ends {
				fc.patchA(j)
			}
			return nil // later clauses are unreachable, as in the tree-walker
		}
		if err := c.expr(fc, sc, parts[0], false); err != nil {
			return err
		}
		switch {
		case len(parts) == 1: // test-only: the test's value is the result
			ends = append(ends, fc.emit(OpJumpTruthyKeep, 0, 0))
		case isArrow(parts[1]):
			if len(parts) != 3 {
				return unsupportedf("bad cond => clause")
			}
			jNext := fc.emit(OpJumpFalsyPop, 0, 0)
			if err := c.expr(fc, sc, parts[2], false); err != nil {
				return err
			}
			fc.emit(OpSwap, 0, 0)
			fc.emit(OpCall, 1, 0)
			ends = append(ends, fc.emit(OpJump, 0, 0))
			fc.patchA(jNext)
		default:
			jNext := fc.emit(OpJumpIfFalse, 0, 0)
			if err := c.seq(fc, sc, parts[1:], tail); err != nil {
				return err
			}
			ends = append(ends, fc.emit(OpJump, 0, 0))
			fc.patchA(jNext)
		}
	}
	fc.emit(OpUnspec, 0, 0)
	for _, j := range ends {
		fc.patchA(j)
	}
	return nil
}

func isArrow(v scheme.Value) bool {
	s, ok := v.(scheme.Symbol)
	return ok && s == "=>"
}

func (c *compiler) caseForm(fc *fnCode, sc *scope, rest []scheme.Value, tail bool) error {
	if len(rest) < 1 {
		return unsupportedf("bad case")
	}
	if err := c.expr(fc, sc, rest[0], false); err != nil {
		return err
	}
	var ends []int
	for _, cl := range rest[1:] {
		parts, err := scheme.ListToSlice(cl)
		if err != nil || len(parts) < 1 {
			return unsupportedf("bad case clause")
		}
		if s, ok := parts[0].(scheme.Symbol); ok && s == "else" {
			fc.emit(OpPop, 0, 0)
			if err := c.seq(fc, sc, parts[1:], tail); err != nil {
				return err
			}
			for _, j := range ends {
				fc.patchA(j)
			}
			return nil
		}
		data, err := scheme.ListToSlice(parts[0])
		if err != nil {
			return unsupportedf("bad case datum list")
		}
		jNext := fc.emit(OpCaseMatch, fc.konst(data), 0)
		if err := c.seq(fc, sc, parts[1:], tail); err != nil {
			return err
		}
		ends = append(ends, fc.emit(OpJump, 0, 0))
		fc.patchB(jNext)
	}
	fc.emit(OpPop, 0, 0)
	fc.emit(OpUnspec, 0, 0)
	for _, j := range ends {
		fc.patchA(j)
	}
	return nil
}

// doLoop compiles (do ((v init step)...) (test result...) body...) with the
// tree-walker's runtime shape: ONE binding per variable for the whole loop
// (a step is an assignment, so closures made in the body share the live,
// boxed binding), simultaneous step assignment, and a backward branch — a
// safepoint — per iteration.
func (c *compiler) doLoop(fc *fnCode, sc *scope, rest []scheme.Value) error {
	if len(rest) < 2 {
		return unsupportedf("bad do")
	}
	specs, err := scheme.ListToSlice(rest[0])
	if err != nil {
		return unsupportedf("bad do")
	}
	names := make([]scheme.Symbol, len(specs))
	steps := make([]scheme.Value, len(specs)) // nil = no step
	for i, sp := range specs {
		parts, err := scheme.ListToSlice(sp)
		if err != nil || len(parts) < 2 || len(parts) > 3 {
			return unsupportedf("bad do variable spec")
		}
		name, ok := parts[0].(scheme.Symbol)
		if !ok {
			return unsupportedf("bad do variable")
		}
		names[i] = name
		if len(parts) == 3 {
			steps[i] = parts[2]
		}
		if err := c.expr(fc, sc, parts[1], false); err != nil {
			return err
		}
	}
	testParts, err := scheme.ListToSlice(rest[1])
	if err != nil || len(testParts) < 1 {
		return unsupportedf("bad do test clause")
	}
	newSc := newScope(sc, fc)
	defer newSc.leave()
	c.bindValues(fc, newSc, names)
	top := int32(len(fc.ops))
	if err := c.expr(fc, newSc, testParts[0], false); err != nil {
		return err
	}
	jBody := fc.emit(OpJumpIfFalse, 0, 0)
	if err := c.seq(fc, newSc, testParts[1:], false); err != nil {
		return err
	}
	jEnd := fc.emit(OpJump, 0, 0)
	fc.patchA(jBody)
	for _, b := range rest[2:] {
		if err := c.expr(fc, newSc, b, false); err != nil {
			return err
		}
		fc.emit(OpPop, 0, 0)
	}
	var stepped []scheme.Symbol
	for i, step := range steps {
		if step == nil {
			continue
		}
		if err := c.expr(fc, newSc, step, false); err != nil {
			return err
		}
		stepped = append(stepped, names[i])
	}
	for i := len(stepped) - 1; i >= 0; i-- {
		if _, err := c.assign(fc, newSc, stepped[i], -1); err != nil {
			return err
		}
	}
	fc.emit(OpJump, top, 0) // backward branch: per-iteration safepoint
	fc.patchA(jEnd)
	return nil
}

// fluidLet compiles nested single-binding extents: each init evaluates
// inside the previous bindings' extents — the tree-walker's exact order.
func (c *compiler) fluidLet(fc *fnCode, sc *scope, names []scheme.Symbol, inits []scheme.Value, body []scheme.Value) error {
	if len(names) == 0 {
		return c.seq(fc, sc, body, false)
	}
	if err := c.expr(fc, sc, inits[0], false); err != nil {
		return err
	}
	err := c.thunkSub(fc, sc, func(sub *fnCode, subSc *scope) error {
		if len(names) == 1 {
			return c.seq(sub, subSc, body, false)
		}
		return c.fluidLet(sub, subSc, names[1:], inits[1:], body)
	})
	if err != nil {
		return err
	}
	fc.emit(OpFluid, fc.konst(names[0]), 0)
	return nil
}

// ---------------------------------------------------------------------------
// tuple-space binding forms

type tupleFieldKind uint8

const (
	fLit tupleFieldKind = iota
	fFormal
	fExpr
)

type tupleField struct {
	kind tupleFieldKind
	lit  core.Value
	name string // formal name
}

// tupleSpec is the compiled template for one get/rd form; it lives in the
// constant pool.
type tupleSpec struct {
	name    string // "get" | "rd"
	remove  bool
	fields  []tupleField
	nexpr   int
	formals []string // in template order; the body closure's params
	hasBody bool
}

func (c *compiler) tupleForm(fc *fnCode, sc *scope, head scheme.Symbol, rest []scheme.Value) error {
	if len(rest) < 2 {
		return unsupportedf("bad %s", head)
	}
	items, err := scheme.ListToSlice(rest[1])
	if err != nil {
		return unsupportedf("bad template")
	}
	spec := &tupleSpec{name: string(head), remove: head == "get"}
	seen := map[string]bool{}
	var exprs []scheme.Value
	for _, it := range items {
		switch x := it.(type) {
		case scheme.Symbol:
			if len(x) > 0 && x[0] == '?' {
				name := string(x[1:])
				if seen[name] {
					return unsupportedf("duplicate template formal ?%s", name)
				}
				seen[name] = true
				spec.fields = append(spec.fields, tupleField{kind: fFormal, name: name})
				spec.formals = append(spec.formals, name)
			} else {
				spec.fields = append(spec.fields, tupleField{kind: fLit, lit: x})
			}
		case *scheme.Pair:
			expr := scheme.Value(it)
			if s, ok := x.Car.(scheme.Symbol); ok && s == "unquote" {
				parts, err := scheme.ListToSlice(x.Cdr)
				if err != nil || len(parts) != 1 {
					return unsupportedf("bad template unquote")
				}
				expr = parts[0]
			}
			spec.fields = append(spec.fields, tupleField{kind: fExpr})
			exprs = append(exprs, expr)
		default:
			spec.fields = append(spec.fields, tupleField{kind: fLit, lit: scheme.ToTupleValue(it)})
		}
	}
	spec.nexpr = len(exprs)
	spec.hasBody = len(rest) > 2
	if err := c.expr(fc, sc, rest[0], false); err != nil {
		return err
	}
	for _, e := range exprs {
		if err := c.expr(fc, sc, e, false); err != nil {
			return err
		}
	}
	if spec.hasBody {
		params := make([]scheme.Symbol, len(spec.formals))
		for i, f := range spec.formals {
			params[i] = scheme.Symbol(f)
		}
		if err := c.procSub(fc, sc, "", params, "", rest[2:]); err != nil {
			return err
		}
	}
	fc.emit(OpTuple, fc.konst(spec), 0)
	return nil
}

// ---------------------------------------------------------------------------
// procedure bodies and internal defines

// bodyItem is one flattened body element: an internal define or an
// expression. Body-level begins splice, as they do under evalBody.
type bodyItem struct {
	define bool
	name   scheme.Symbol
	init   scheme.Value // nil → unspecified init
	unspec bool         // an empty begin: evaluates to unspecified
	expr   scheme.Value
}

func flattenBody(forms []scheme.Value) ([]bodyItem, error) {
	var items []bodyItem
	for _, f := range forms {
		p, ok := f.(*scheme.Pair)
		if !ok {
			items = append(items, bodyItem{expr: f})
			continue
		}
		head, isSym := p.Car.(scheme.Symbol)
		switch {
		case isSym && head == "define":
			rest, err := scheme.ListToSlice(p.Cdr)
			if err != nil || len(rest) < 1 {
				return nil, unsupportedf("bad define")
			}
			switch target := rest[0].(type) {
			case scheme.Symbol:
				it := bodyItem{define: true, name: target}
				if len(rest) == 2 {
					it.init = rest[1]
				}
				items = append(items, it)
			case *scheme.Pair:
				name, ok := target.Car.(scheme.Symbol)
				if !ok {
					return nil, unsupportedf("bad define")
				}
				lambda := scheme.Cons(scheme.Symbol("lambda"),
					scheme.Cons(target.Cdr, scheme.List(rest[1:]...)))
				items = append(items, bodyItem{define: true, name: name, init: lambda})
			default:
				return nil, unsupportedf("bad define")
			}
		case isSym && (head == "begin" || head == "block"):
			sub, err := scheme.ListToSlice(p.Cdr)
			if err != nil {
				return nil, unsupportedf("bad begin")
			}
			if len(sub) == 0 {
				items = append(items, bodyItem{unspec: true})
				continue
			}
			flat, err := flattenBody(sub)
			if err != nil {
				return nil, err
			}
			items = append(items, flat...)
		default:
			items = append(items, bodyItem{expr: f})
		}
	}
	return items, nil
}

// bodyItems flattens a body and checks the define-prefix rule: all internal
// defines must precede the first expression (the compiled letrec*-style
// slots match the tree-walker there; anything trickier falls back).
func bodyItems(forms []scheme.Value) ([]bodyItem, []bodyItem, error) {
	items, err := flattenBody(forms)
	if err != nil {
		return nil, nil, err
	}
	n := 0
	for n < len(items) && items[n].define {
		n++
	}
	for _, it := range items[n:] {
		if it.define {
			return nil, nil, unsupportedf("define after expression in body")
		}
	}
	return items, items[:n], nil
}

// defineSlots binds a body's internal defines, pending and unspecified —
// boxed, when a nested procedure may read one before or after its define.
func (c *compiler) defineSlots(fc *fnCode, sc *scope, defs []bodyItem) {
	for _, d := range defs {
		fc.emit(OpUnspec, 0, 0)
		initial(fc, c.bind(sc, d.name))
		sc.pending[d.name] = true
	}
}

// compileBody emits a flattened body: define items initialize their slots
// in order (clearing pending as they complete), expression items evaluate
// for effect except the last, which is the body's value.
func (c *compiler) compileBody(fc *fnCode, sc *scope, items []bodyItem, tail bool) error {
	if len(items) == 0 {
		fc.emit(OpUnspec, 0, 0)
		return nil
	}
	for i, it := range items {
		last := i == len(items)-1
		switch {
		case it.define:
			if it.init != nil {
				if err := c.expr(fc, sc, it.init, false); err != nil {
					return err
				}
			} else {
				fc.emit(OpUnspec, 0, 0)
			}
			delete(sc.pending, it.name)
			if _, err := c.assign(fc, sc, it.name, fc.konst(it.name)); err != nil {
				return err
			}
			if last {
				fc.emit(OpUnspec, 0, 0)
			}
		case it.unspec:
			fc.emit(OpUnspec, 0, 0)
			if !last {
				fc.emit(OpPop, 0, 0)
			}
		default:
			if err := c.expr(fc, sc, it.expr, tail && last); err != nil {
				return err
			}
			if !last {
				fc.emit(OpPop, 0, 0)
			}
		}
	}
	return nil
}

// parseParams mirrors the tree-walker's parameter-list parser; malformed
// lists decline (the tree-walker raises the matching runtime error).
func parseParams(v scheme.Value) ([]scheme.Symbol, scheme.Symbol, error) {
	var params []scheme.Symbol
	for {
		switch x := v.(type) {
		case scheme.Symbol:
			return params, x, nil // rest parameter
		case *scheme.Pair:
			s, ok := x.Car.(scheme.Symbol)
			if !ok {
				return nil, "", unsupportedf("bad parameter")
			}
			params = append(params, s)
			v = x.Cdr
		default:
			if scheme.IsEmptyList(v) {
				return params, "", nil
			}
			return nil, "", unsupportedf("bad parameter list")
		}
	}
}

// lambdaSub compiles a procedure from source params + body and emits the
// making of its closure.
func (c *compiler) lambdaSub(fc *fnCode, sc *scope, name scheme.Symbol, paramsDatum scheme.Value, body []scheme.Value) error {
	params, restSym, err := parseParams(paramsDatum)
	if err != nil {
		return err
	}
	return c.procSub(fc, sc, name, params, restSym, body)
}

// procSub compiles a procedure with known params (internal defines
// allowed) and emits the making of its closure. restSym names the rest
// parameter (slot NParams); empty means a fixed arity.
func (c *compiler) procSub(fc *fnCode, sc *scope, name scheme.Symbol, params []scheme.Symbol, restSym scheme.Symbol, body []scheme.Value) error {
	items, defs, err := bodyItems(body)
	if err != nil {
		return err
	}
	nparams := len(params)
	if restSym != "" {
		params = append(params[:nparams:nparams], restSym)
	}
	return c.sub(fc, sc, newFn(name, nparams, restSym != ""),
		func(sub *fnCode, subSc *scope) error {
			for _, p := range params {
				if b := c.bind(subSc, p); b.boxed {
					sub.emit(OpLocal, int32(b.slot), 0)
					initial(sub, b)
				}
			}
			c.defineSlots(sub, subSc, defs)
			return c.compileBody(sub, subSc, items, true)
		})
}

// thunkSub compiles a nullary procedure whose body is generated by gen
// (used by the forms that wrap their bodies as thunks) and emits the making
// of its closure.
func (c *compiler) thunkSub(fc *fnCode, sc *scope, gen func(sub *fnCode, subSc *scope) error) error {
	return c.sub(fc, sc, newFn("", 0, false), gen)
}

// sub compiles the procedure sub, its body generated by gen, then emits
// into fc, at sc, the pushing of its free variables' values — their
// boxes, where boxed — and the closure over them.
func (c *compiler) sub(fc *fnCode, sc *scope, sub *fnCode, gen func(sub *fnCode, subSc *scope) error) error {
	if err := gen(sub, newScope(sc, sub)); err != nil {
		return err
	}
	sub.emit(OpReturn, 0, 0)
	for _, sym := range sub.free {
		c.load(fc, sc, sym)
	}
	fc.subs = append(fc.subs, sub.code())
	fc.emit(OpClosure, int32(len(fc.subs)-1), int32(len(sub.free)))
	return nil
}
