package scheme

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Cell is one variable binding: the value a symbol names in one frame. It
// is the only representation of a binding — the tree-walker reaches it
// through Env's maps, compiled code holds it directly (vm's link step) — so
// a define or set! by either engine is the other's next read. An unbound
// cell is a name compiled code has referred to before any define ran.
type Cell struct {
	v atomic.Pointer[Value]
}

// Load answers the bound value; ok is false while the cell is unbound.
func (c *Cell) Load() (v Value, ok bool) {
	if c == nil {
		return nil, false
	}
	if p := c.v.Load(); p != nil {
		return *p, true
	}
	return nil, false
}

// Define binds the cell to v.
func (c *Cell) Define(v Value) { c.v.Store(&v) }

// Set assigns v to a bound cell (set!) and reports failure on an unbound one.
func (c *Cell) Set(v Value) bool {
	if c == nil || c.v.Load() == nil {
		return false
	}
	c.v.Store(&v)
	return true
}

// Env is a lexical environment frame. The global frame is shared by every
// thread in a VM (the paper's single address space) and closure frames —
// as in the paper — may be shared across threads whenever data dependencies
// warrant, so the name→cell map is locked; values are read and written
// through the cells without it.
type Env struct {
	mu     sync.Mutex
	vars   map[Symbol]*Cell
	parent *Env
}

// NewEnv creates a frame under parent (nil for the global frame).
func NewEnv(parent *Env) *Env {
	return &Env{vars: make(map[Symbol]*Cell), parent: parent}
}

// Cell answers this frame's cell for sym, creating it unbound when the
// frame has none: what compiled code links a global reference to.
func (e *Env) Cell(sym Symbol) *Cell { return e.cell(sym, true) }

func (e *Env) cell(sym Symbol, create bool) *Cell {
	e.mu.Lock()
	c := e.vars[sym]
	if c == nil && create {
		c = new(Cell)
		e.vars[sym] = c
	}
	e.mu.Unlock()
	return c
}

// Define binds sym in this frame.
func (e *Env) Define(sym Symbol, v Value) { e.cell(sym, true).Define(v) }

// Lookup resolves sym through the frame chain.
func (e *Env) Lookup(sym Symbol) (Value, bool) {
	for f := e; f != nil; f = f.parent {
		if v, ok := f.cell(sym, false).Load(); ok {
			return v, true
		}
	}
	return nil, false
}

// Set assigns to the nearest binding of sym (set!); it reports failure when
// sym is unbound.
func (e *Env) Set(sym Symbol, v Value) bool {
	for f := e; f != nil; f = f.parent {
		if f.cell(sym, false).Set(v) {
			return true
		}
	}
	return false
}

// Error is a Scheme-level error with irritants.
type Error struct {
	Message   string
	Irritants []Value
}

func (e *Error) Error() string {
	if len(e.Irritants) == 0 {
		return e.Message
	}
	s := e.Message
	for _, irr := range e.Irritants {
		s += " " + WriteString(irr)
	}
	return s
}

// Errorf builds a Scheme error.
func Errorf(format string, args ...any) *Error {
	return &Error{Message: fmt.Sprintf(format, args...)}
}
