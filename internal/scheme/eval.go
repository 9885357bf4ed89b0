package scheme

import (
	"repro/internal/core"
)

// pollBudget is how many evaluation steps run between thread-controller
// polls, per thread — the interpreter's safe-point density.
const pollBudget = 256

// Safepoint charges one evaluation step against the thread's safe-point
// quantum and polls the thread controller when it elapses. The tree-walker
// takes one per evaluated node; the bytecode VM takes one per call and
// backward branch — both feed the same per-thread counter, so preemption,
// stealing and timer-driven requests fire with the same density under
// either engine. It reports whether this step was the one that polled, the
// boundary at which an engine publishes what it counts locally.
func (in *Interp) Safepoint(ctx *core.Context) bool { return ctx.Step(pollBudget) }

// Eval evaluates expr in env on the STING thread behind ctx. Tail positions
// iterate rather than recurse, so loops written as tail calls run in
// constant Go stack.
func (in *Interp) Eval(ctx *core.Context, expr Value, env *Env) (Value, error) {
	for {
		in.Safepoint(ctx)
		switch x := expr.(type) {
		case Symbol:
			if v, ok := env.Lookup(x); ok {
				return v, nil
			}
			return nil, Errorf("unbound variable: %s", x)
		case *Pair:
			head, isSym := x.Car.(Symbol)
			if isSym {
				if sf, ok := specialForms[head]; ok {
					next, v, err := sf(in, ctx, x, env)
					if err != nil {
						return nil, err
					}
					if next == nil {
						return v, nil
					}
					expr, env = next.expr, next.env
					continue
				}
			}
			// Procedure application.
			fn, err := in.Eval(ctx, x.Car, env)
			if err != nil {
				return nil, err
			}
			args, err := in.evalArgs(ctx, x.Cdr, env)
			if err != nil {
				return nil, err
			}
			switch p := fn.(type) {
			case *Closure:
				frame, err := bindParams(p, args)
				if err != nil {
					return nil, err
				}
				if len(p.Body) == 0 {
					return Unspecified, nil
				}
				for i := 0; i < len(p.Body)-1; i++ {
					if _, err := in.Eval(ctx, p.Body[i], frame); err != nil {
						return nil, err
					}
				}
				expr, env = p.Body[len(p.Body)-1], frame
				continue // tail call
			case *Primitive:
				return in.applyPrimitive(ctx, p, args)
			case Procedure:
				return p.ApplyProc(in, ctx, args)
			default:
				return nil, Errorf("not a procedure: %s", WriteString(fn))
			}
		case *emptyT:
			return nil, Errorf("cannot evaluate ()")
		default:
			return x, nil // self-evaluating
		}
	}
}

// tailNext carries the expression/environment a special form leaves in tail
// position.
type tailNext struct {
	expr Value
	env  *Env
}

func (in *Interp) evalArgs(ctx *core.Context, rest Value, env *Env) ([]Value, error) {
	var args []Value
	for {
		switch r := rest.(type) {
		case *emptyT:
			return args, nil
		case *Pair:
			v, err := in.Eval(ctx, r.Car, env)
			if err != nil {
				return nil, err
			}
			if mv, ok := v.(*MultiValues); ok && len(mv.Values) == 1 {
				v = mv.Values[0]
			}
			args = append(args, v)
			rest = r.Cdr
		default:
			return nil, Errorf("improper argument list")
		}
	}
}

func bindParams(c *Closure, args []Value) (*Env, error) {
	frame := NewEnv(c.Env)
	if c.Rest == "" {
		if len(args) != len(c.Params) {
			return nil, Errorf("%s: want %d arguments, got %d",
				procName(c), len(c.Params), len(args))
		}
	} else if len(args) < len(c.Params) {
		return nil, Errorf("%s: want at least %d arguments, got %d",
			procName(c), len(c.Params), len(args))
	}
	for i, p := range c.Params {
		frame.Define(p, args[i])
	}
	if c.Rest != "" {
		frame.Define(c.Rest, List(args[len(c.Params):]...))
	}
	return frame, nil
}

func procName(c *Closure) string {
	if c.Name != "" {
		return string(c.Name)
	}
	return "#[procedure]"
}

func (in *Interp) applyPrimitive(ctx *core.Context, p *Primitive, args []Value) (Value, error) {
	if len(args) < p.Min || (p.Max >= 0 && len(args) > p.Max) {
		return nil, Errorf("%s: bad argument count %d", p.Name, len(args))
	}
	return p.Fn(in, ctx, args)
}

// Apply invokes a procedure value with the given arguments (used by map,
// apply, the thread bindings, and Go embedders).
func (in *Interp) Apply(ctx *core.Context, fn Value, args []Value) (Value, error) {
	switch p := fn.(type) {
	case *Closure:
		frame, err := bindParams(p, args)
		if err != nil {
			return nil, err
		}
		var out Value = Unspecified
		for _, b := range p.Body {
			v, err := in.Eval(ctx, b, frame)
			if err != nil {
				return nil, err
			}
			out = v
		}
		return out, nil
	case *Primitive:
		return in.applyPrimitive(ctx, p, args)
	case Procedure:
		return p.ApplyProc(in, ctx, args)
	default:
		return nil, Errorf("not a procedure: %s", WriteString(fn))
	}
}

// evalBody evaluates all but the last form of a body, returning the last as
// the tail expression.
func (in *Interp) evalBody(ctx *core.Context, body []Value, env *Env) (*tailNext, Value, error) {
	if len(body) == 0 {
		return nil, Unspecified, nil
	}
	for i := 0; i < len(body)-1; i++ {
		if _, err := in.Eval(ctx, body[i], env); err != nil {
			return nil, nil, err
		}
	}
	return &tailNext{expr: body[len(body)-1], env: env}, nil, nil
}

// forms converts a list tail into a slice, reporting syntax errors with the
// enclosing form's name.
func forms(formName string, rest Value) ([]Value, error) {
	out, err := ListToSlice(rest)
	if err != nil {
		return nil, Errorf("%s: %v", formName, err)
	}
	return out, nil
}

// CloseThunk wraps a Scheme nullary procedure as a substrate thunk: the
// bridge fork-thread, create-thread, future and spawn are built from.
func (in *Interp) CloseThunk(fn Value) core.Thunk {
	return func(ctx *core.Context) ([]core.Value, error) {
		v, err := in.Apply(ctx, fn, nil)
		if err != nil {
			return nil, err
		}
		if mv, ok := v.(*MultiValues); ok {
			return mv.Values, nil
		}
		return []core.Value{v}, nil
	}
}

// exprThunk wraps an unevaluated expression + environment as a substrate
// thunk (for the special forms whose operand must not evaluate eagerly).
func (in *Interp) exprThunk(expr Value, env *Env) core.Thunk {
	return func(ctx *core.Context) ([]core.Value, error) {
		v, err := in.Eval(ctx, expr, env)
		if err != nil {
			return nil, err
		}
		if mv, ok := v.(*MultiValues); ok {
			return mv.Values, nil
		}
		return []core.Value{v}, nil
	}
}

// oneValue converts a substrate result slice to a Scheme value.
func oneValue(vals []core.Value) Value {
	switch len(vals) {
	case 0:
		return Unspecified
	case 1:
		if vals[0] == nil {
			return Unspecified
		}
		return vals[0]
	default:
		return &MultiValues{Values: vals}
	}
}

func badForm(form *Pair) error {
	return Errorf("bad form: %s", WriteString(form))
}
