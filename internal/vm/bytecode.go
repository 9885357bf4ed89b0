// Package vm is STING's bytecode engine for the computation sublanguage: a
// compiler that lowers Scheme forms — the STING concurrency forms included —
// to a compact instruction stream with lexically-addressed variable slots,
// constant pooling and tail-call elimination, plus a stack machine whose
// safepoints (calls and backward branches) feed the same poll budget as the
// tree-walker, so preemption, stealing and span inheritance behave
// identically under either engine.
//
// The tree-walker in internal/scheme stays the executable reference
// semantics: the compiler declines any form outside its subset (quasiquote,
// non-prefix internal defines, malformed syntax) and the interpreter falls
// back to Eval for that toplevel form, so the engine is never wrong, only
// occasionally slower. The two engines are differentially fuzzed against
// each other (internal/scheme FuzzEngines).
package vm

import (
	"fmt"
	"strings"

	"repro/internal/scheme"
)

// Opcode identifies one VM instruction.
type Opcode uint8

// The instruction set. Operands A and B are immediate int32s; stack effects
// are noted as [before] → [after].
const (
	// OpConst pushes Consts[A].
	OpConst Opcode = iota
	// OpUnspec pushes the unspecified value.
	OpUnspec
	// OpLocal pushes local A, stack[base+A]. [] → [v]
	OpLocal
	// OpFree pushes the current closure's free value A. [] → [v]
	OpFree
	// OpSetLocal pops into local A, naming an unnamed closure after
	// Consts[B] when B >= 0. [v] → []
	OpSetLocal
	// OpBox binds local A to a new box holding the popped value. [v] → []
	OpBox
	// OpUnbox replaces the box on top by its value. [box] → [v]
	OpUnbox
	// OpSetBox stores into a box, naming as OpSetLocal does. [v box] → []
	OpSetBox
	// OpGlobal pushes the global named Consts[A]; unbound is an error.
	OpGlobal
	// OpSetGlobal assigns the nearest binding of Consts[A]. [v] → [unspecified]
	OpSetGlobal
	// OpDefGlobal defines Consts[A] in the global frame, naming unnamed
	// closures. [v] → [unspecified]
	OpDefGlobal
	// OpJump continues at A; a backward target is a safepoint.
	OpJump
	// OpJumpIfFalse pops and jumps to A when the value is falsy.
	OpJumpIfFalse
	// OpJumpTruthyKeep jumps to A keeping the top when truthy, else pops and
	// falls through (or, test-only cond clauses).
	OpJumpTruthyKeep
	// OpJumpFalsyKeep jumps to A keeping the top when falsy, else pops and
	// falls through (and).
	OpJumpFalsyKeep
	// OpJumpFalsyPop pops and jumps to A when falsy, else keeps the top and
	// falls through (cond => clauses).
	OpJumpFalsyPop
	// OpPop discards the top of stack.
	OpPop
	// OpDup duplicates the top of stack.
	OpDup
	// OpSwap exchanges the two top values.
	OpSwap
	// OpClosure pushes a closure over Subs[A] holding the B values on top
	// (its free variables, in Subs[A].Free order). [f1..fB] → [closure]
	OpClosure
	// OpCall calls with A arguments: [fn a1..aA] → [result]. A safepoint.
	OpCall
	// OpTailCall is OpCall reusing the current activation (safepoint); a
	// non-bytecode callee degrades to a plain call.
	OpTailCall
	// OpReturn pops the current activation: its top of stack is the result.
	OpReturn
	// OpCaseMatch peeks the case key: when it is eqv? to any datum in
	// Consts[A] ([]Value) the key pops and execution falls through to the
	// clause body, else it jumps to B with the key kept.
	OpCaseMatch
	// OpPromise wraps a nullary closure in a promise (delay). [clo] → [p]
	OpPromise

	// STING concurrency instructions. Thunk operands are compiled closures.
	// OpFork forks a thread for the thunk; when A=1 a VP designator is on
	// top. [thunk vp?] → [thread]
	OpFork
	// OpCreateThread creates a delayed thread. [thunk] → [thread]
	OpCreateThread
	// OpFuture forks a result-parallel thread. [thunk] → [thread]
	OpFuture
	// OpSpawn deposits A sibling threads into a tuple space.
	// [ts thunk1..thunkA] → [threads]
	OpSpawn
	// OpNoPreempt runs the thunk with preemption disabled. [thunk] → [v]
	OpNoPreempt
	// OpNoInterrupt runs the thunk with interrupts disabled. [thunk] → [v]
	OpNoInterrupt
	// OpWithMutex holds the mutex around the thunk. [m thunk] → [v]
	OpWithMutex
	// OpFluid runs the thunk with the fluid Consts[A] bound. [v thunk] → [v]
	OpFluid
	// OpAtomic runs the thunk inside a transaction ((atomic ...) semantics:
	// flattening, conflict re-run, abort → #f). [thunk] → [v]
	OpAtomic
	// OpTuple runs the get/rd template match described by Consts[A] (a
	// *tupleSpec). [ts exprs... body?] → [v]
	OpTuple
)

var opNames = [...]string{
	OpConst: "const", OpUnspec: "unspec", OpLocal: "local",
	OpFree: "free", OpSetLocal: "set-local", OpBox: "box", OpUnbox: "unbox",
	OpSetBox: "set-box", OpGlobal: "global",
	OpSetGlobal: "set-global", OpDefGlobal: "def-global", OpJump: "jump",
	OpJumpIfFalse: "jump-if-false", OpJumpTruthyKeep: "jump-truthy-keep",
	OpJumpFalsyKeep: "jump-falsy-keep", OpJumpFalsyPop: "jump-falsy-pop",
	OpPop: "pop", OpDup: "dup", OpSwap: "swap", OpClosure: "closure",
	OpCall: "call", OpTailCall: "tail-call", OpReturn: "return",
	OpCaseMatch: "case-match", OpPromise: "promise", OpFork: "fork",
	OpCreateThread: "create-thread", OpFuture: "future", OpSpawn: "spawn",
	OpNoPreempt: "no-preempt", OpNoInterrupt: "no-interrupt",
	OpWithMutex: "with-mutex", OpFluid: "fluid", OpAtomic: "atomic",
	OpTuple: "tuple",
}

func (o Opcode) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Instr is one fixed-width instruction.
type Instr struct {
	Op   Opcode
	A, B int32
}

// Code is one compiled procedure (or toplevel form): its instruction
// stream, constant pool, and nested procedures.
type Code struct {
	Name    scheme.Symbol // for error messages and disassembly; may be empty
	Ops     []Instr
	Consts  []scheme.Value
	Subs    []*Code
	NParams int
	HasRest bool
	NSlots  int // locals: params (+ rest), then every binding form's slots
	// Free names the variables a closure over this code copies, in order;
	// Boxed, the locals of this code that are captured and assigned.
	Free, Boxed []scheme.Symbol

	// cells[i] is the global cell of the symbol Consts[i], for every i a
	// global instruction names; filled by link, nil until then.
	cells []*scheme.Cell
}

// Disassemble renders the code and its nested procedures for debugging.
func (c *Code) Disassemble() string {
	var b strings.Builder
	c.disasm(&b, "")
	return b.String()
}

func (c *Code) disasm(b *strings.Builder, indent string) {
	name := string(c.Name)
	if name == "" {
		name = "<anon>"
	}
	fmt.Fprintf(b, "%s%s: params=%d rest=%v slots=%d free=%v boxed=%v\n",
		indent, name, c.NParams, c.HasRest, c.NSlots, c.Free, c.Boxed)
	for i, op := range c.Ops {
		fmt.Fprintf(b, "%s  %3d  %-16s %d %d", indent, i, op.Op, op.A, op.B)
		switch op.Op {
		case OpConst, OpGlobal, OpSetGlobal, OpDefGlobal, OpFluid:
			fmt.Fprintf(b, "    ; %s", scheme.WriteString(c.Consts[op.A]))
		}
		b.WriteByte('\n')
	}
	for _, sub := range c.Subs {
		sub.disasm(b, indent+"    ")
	}
}
