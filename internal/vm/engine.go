package vm

import (
	"repro/internal/core"
	"repro/internal/scheme"
)

// Engine is the bytecode execution engine for one interpreter. It compiles
// each toplevel form on arrival and runs it on the stack machine, declining
// (handled=false) anything the compiler does not cover so the interpreter
// falls back to the tree-walking reference evaluator.
type Engine struct {
	in *scheme.Interp
}

// New builds a bytecode engine bound to in.
func New(in *scheme.Interp) *Engine { return &Engine{in: in} }

// Name implements scheme.Engine.
func (e *Engine) Name() string { return "vm" }

// EvalToplevel implements scheme.Engine: compile the datum, link its global
// references, run it in a fresh nullary activation over the global
// environment.
func (e *Engine) EvalToplevel(ctx *core.Context, expr scheme.Value, env *scheme.Env) (scheme.Value, bool, error) {
	if env != e.in.Global() {
		return nil, false, nil // engines only compile against the global frame
	}
	code, err := Compile(expr)
	if err != nil {
		fallbackForms.Add(1)
		return nil, false, nil
	}
	compiledForms.Add(1)
	link(code, env)
	v, err := e.exec(ctx, &Closure{Code: code, eng: e}, nil)
	return v, true, err
}

// link resolves the operand of every global instruction in code and its
// nested procedures to the symbol's cell in the global frame, so running the
// instruction is one atomic load or store. A name nothing has defined yet
// links to an unbound cell — the define that runs later binds that same
// cell. Compile does not do this itself: it sees a datum, not an
// interpreter, and its output is only runnable once linked to one.
func link(code *Code, global *scheme.Env) {
	code.cells = make([]*scheme.Cell, len(code.Consts))
	for _, ins := range code.Ops {
		switch ins.Op {
		case OpGlobal, OpSetGlobal, OpDefGlobal:
			if code.cells[ins.A] == nil {
				code.cells[ins.A] = global.Cell(code.Consts[ins.A].(scheme.Symbol))
			}
		}
	}
	for _, sub := range code.Subs {
		link(sub, global)
	}
}

func init() {
	scheme.RegisterEngine("vm", func(in *scheme.Interp) scheme.Engine { return New(in) })
}
