package scheme

import (
	"repro/internal/core"
	"repro/internal/synch"
	"repro/internal/tspace"
)

// specialForm evaluates a form. It returns either a tail expression to
// continue with (proper tail calls) or a final value.
type specialForm func(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error)

var specialForms map[Symbol]specialForm

func init() {
	specialForms = map[Symbol]specialForm{
		"quote":      sfQuote,
		"if":         sfIf,
		"define":     sfDefine,
		"set!":       sfSet,
		"lambda":     sfLambda,
		"begin":      sfBegin,
		"let":        sfLet,
		"let*":       sfLetStar,
		"letrec":     sfLetrec,
		"cond":       sfCond,
		"case":       sfCase,
		"and":        sfAnd,
		"or":         sfOr,
		"when":       sfWhen,
		"unless":     sfUnless,
		"do":         sfDo,
		"delay":      sfDelay,
		"quasiquote": sfQuasiquote,
		"named-lambda": func(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
			return sfLambda(in, ctx, form, env)
		},

		// STING concurrency forms (operands must not evaluate eagerly).
		"fork-thread":        sfForkThread,
		"create-thread":      sfCreateThread,
		"future":             sfFuture,
		"spawn":              sfSpawn,
		"without-preemption": sfWithoutPreemption,
		"without-interrupts": sfWithoutInterrupts,
		"with-mutex":         sfWithMutex,
		"fluid-let":          sfFluidLet,
		"get":                sfTSGet,
		"rd":                 sfTSRd,
		"atomic":             sfAtomic,
		"block":              sfBegin, // the paper's (block e ...) sequencing form
	}
}

func sfQuote(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	rest, err := forms("quote", form.Cdr)
	if err != nil || len(rest) != 1 {
		return nil, nil, badForm(form)
	}
	return nil, rest[0], nil
}

func sfIf(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	rest, err := forms("if", form.Cdr)
	if err != nil || len(rest) < 2 || len(rest) > 3 {
		return nil, nil, badForm(form)
	}
	test, err := in.Eval(ctx, rest[0], env)
	if err != nil {
		return nil, nil, err
	}
	if IsTruthy(test) {
		return &tailNext{expr: rest[1], env: env}, nil, nil
	}
	if len(rest) == 3 {
		return &tailNext{expr: rest[2], env: env}, nil, nil
	}
	return nil, Unspecified, nil
}

func sfDefine(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	rest, err := forms("define", form.Cdr)
	if err != nil || len(rest) < 1 {
		return nil, nil, badForm(form)
	}
	switch target := rest[0].(type) {
	case Symbol:
		var v Value = Unspecified
		if len(rest) == 2 {
			v, err = in.Eval(ctx, rest[1], env)
			if err != nil {
				return nil, nil, err
			}
		}
		if c, ok := v.(*Closure); ok && c.Name == "" {
			c.Name = target
		}
		env.Define(target, v)
		return nil, Unspecified, nil
	case *Pair:
		// (define (name . params) body...)
		name, ok := target.Car.(Symbol)
		if !ok {
			return nil, nil, badForm(form)
		}
		params, restParam, err := parseParams(target.Cdr)
		if err != nil {
			return nil, nil, err
		}
		c := &Closure{Name: name, Params: params, Rest: restParam, Body: rest[1:], Env: env}
		env.Define(name, c)
		return nil, Unspecified, nil
	default:
		return nil, nil, badForm(form)
	}
}

func parseParams(v Value) ([]Symbol, Symbol, error) {
	var params []Symbol
	for {
		switch x := v.(type) {
		case *emptyT:
			return params, "", nil
		case Symbol:
			return params, x, nil // rest parameter
		case *Pair:
			s, ok := x.Car.(Symbol)
			if !ok {
				return nil, "", Errorf("bad parameter: %s", WriteString(x.Car))
			}
			params = append(params, s)
			v = x.Cdr
		default:
			return nil, "", Errorf("bad parameter list")
		}
	}
}

func sfSet(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	rest, err := forms("set!", form.Cdr)
	if err != nil || len(rest) != 2 {
		return nil, nil, badForm(form)
	}
	sym, ok := rest[0].(Symbol)
	if !ok {
		return nil, nil, badForm(form)
	}
	v, err := in.Eval(ctx, rest[1], env)
	if err != nil {
		return nil, nil, err
	}
	if !env.Set(sym, v) {
		return nil, nil, Errorf("set!: unbound variable %s", sym)
	}
	return nil, Unspecified, nil
}

func sfLambda(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	rest, err := forms("lambda", form.Cdr)
	if err != nil || len(rest) < 1 {
		return nil, nil, badForm(form)
	}
	params, restParam, err := parseParams(rest[0])
	if err != nil {
		return nil, nil, err
	}
	return nil, &Closure{Params: params, Rest: restParam, Body: rest[1:], Env: env}, nil
}

func sfBegin(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	body, err := forms("begin", form.Cdr)
	if err != nil {
		return nil, nil, err
	}
	return in.evalBody(ctx, body, env)
}

// sfLet handles both plain let and named let (the paper's loop idiom).
func sfLet(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	rest, err := forms("let", form.Cdr)
	if err != nil || len(rest) < 1 {
		return nil, nil, badForm(form)
	}
	if name, ok := rest[0].(Symbol); ok {
		// Named let: (let loop ((v init)...) body...)
		if len(rest) < 2 {
			return nil, nil, badForm(form)
		}
		names, inits, err := parseBindings(rest[1])
		if err != nil {
			return nil, nil, err
		}
		args := make([]Value, len(inits))
		for i, init := range inits {
			args[i], err = in.Eval(ctx, init, env)
			if err != nil {
				return nil, nil, err
			}
		}
		loopEnv := NewEnv(env)
		c := &Closure{Name: name, Params: names, Body: rest[2:], Env: loopEnv}
		loopEnv.Define(name, c)
		frame, err := bindParams(c, args)
		if err != nil {
			return nil, nil, err
		}
		return in.evalBody(ctx, c.Body, frame)
	}
	names, inits, err := parseBindings(rest[0])
	if err != nil {
		return nil, nil, err
	}
	frame := NewEnv(env)
	for i, init := range inits {
		v, err := in.Eval(ctx, init, env)
		if err != nil {
			return nil, nil, err
		}
		frame.Define(names[i], v)
	}
	return in.evalBody(ctx, rest[1:], frame)
}

func sfLetStar(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	rest, err := forms("let*", form.Cdr)
	if err != nil || len(rest) < 1 {
		return nil, nil, badForm(form)
	}
	names, inits, err := parseBindings(rest[0])
	if err != nil {
		return nil, nil, err
	}
	cur := env
	for i, init := range inits {
		v, err := in.Eval(ctx, init, cur)
		if err != nil {
			return nil, nil, err
		}
		next := NewEnv(cur)
		next.Define(names[i], v)
		cur = next
	}
	return in.evalBody(ctx, rest[1:], cur)
}

func sfLetrec(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	rest, err := forms("letrec", form.Cdr)
	if err != nil || len(rest) < 1 {
		return nil, nil, badForm(form)
	}
	names, inits, err := parseBindings(rest[0])
	if err != nil {
		return nil, nil, err
	}
	frame := NewEnv(env)
	for _, n := range names {
		frame.Define(n, Unspecified)
	}
	for i, init := range inits {
		v, err := in.Eval(ctx, init, frame)
		if err != nil {
			return nil, nil, err
		}
		if c, ok := v.(*Closure); ok && c.Name == "" {
			c.Name = names[i]
		}
		frame.Define(names[i], v)
	}
	return in.evalBody(ctx, rest[1:], frame)
}

func parseBindings(v Value) ([]Symbol, []Value, error) {
	pairs, err := ListToSlice(v)
	if err != nil {
		return nil, nil, Errorf("bad bindings: %v", err)
	}
	names := make([]Symbol, len(pairs))
	inits := make([]Value, len(pairs))
	for i, b := range pairs {
		bs, err := ListToSlice(b)
		if err != nil || len(bs) < 1 || len(bs) > 2 {
			return nil, nil, Errorf("bad binding: %s", WriteString(b))
		}
		s, ok := bs[0].(Symbol)
		if !ok {
			return nil, nil, Errorf("bad binding name: %s", WriteString(bs[0]))
		}
		names[i] = s
		if len(bs) == 2 {
			inits[i] = bs[1]
		} else {
			inits[i] = Unspecified
		}
	}
	return names, inits, nil
}

func sfCond(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	clauses, err := forms("cond", form.Cdr)
	if err != nil {
		return nil, nil, err
	}
	for _, cl := range clauses {
		parts, err := ListToSlice(cl)
		if err != nil || len(parts) == 0 {
			return nil, nil, Errorf("cond: bad clause %s", WriteString(cl))
		}
		if s, ok := parts[0].(Symbol); ok && s == "else" {
			return in.evalBody(ctx, parts[1:], env)
		}
		test, err := in.Eval(ctx, parts[0], env)
		if err != nil {
			return nil, nil, err
		}
		if !IsTruthy(test) {
			continue
		}
		if len(parts) == 1 {
			return nil, test, nil
		}
		if s, ok := parts[1].(Symbol); ok && s == "=>" {
			if len(parts) != 3 {
				return nil, nil, Errorf("cond: bad => clause")
			}
			fn, err := in.Eval(ctx, parts[2], env)
			if err != nil {
				return nil, nil, err
			}
			v, err := in.Apply(ctx, fn, []Value{test})
			return nil, v, err
		}
		return in.evalBody(ctx, parts[1:], env)
	}
	return nil, Unspecified, nil
}

func sfCase(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	rest, err := forms("case", form.Cdr)
	if err != nil || len(rest) < 1 {
		return nil, nil, badForm(form)
	}
	key, err := in.Eval(ctx, rest[0], env)
	if err != nil {
		return nil, nil, err
	}
	for _, cl := range rest[1:] {
		parts, err := ListToSlice(cl)
		if err != nil || len(parts) < 1 {
			return nil, nil, Errorf("case: bad clause %s", WriteString(cl))
		}
		if s, ok := parts[0].(Symbol); ok && s == "else" {
			return in.evalBody(ctx, parts[1:], env)
		}
		data, err := ListToSlice(parts[0])
		if err != nil {
			return nil, nil, Errorf("case: bad datum list %s", WriteString(parts[0]))
		}
		for _, d := range data {
			if Eqv(key, d) {
				return in.evalBody(ctx, parts[1:], env)
			}
		}
	}
	return nil, Unspecified, nil
}

func sfAnd(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	rest, err := forms("and", form.Cdr)
	if err != nil {
		return nil, nil, err
	}
	if len(rest) == 0 {
		return nil, true, nil
	}
	for i := 0; i < len(rest)-1; i++ {
		v, err := in.Eval(ctx, rest[i], env)
		if err != nil {
			return nil, nil, err
		}
		if !IsTruthy(v) {
			return nil, v, nil
		}
	}
	return &tailNext{expr: rest[len(rest)-1], env: env}, nil, nil
}

func sfOr(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	rest, err := forms("or", form.Cdr)
	if err != nil {
		return nil, nil, err
	}
	if len(rest) == 0 {
		return nil, false, nil
	}
	for i := 0; i < len(rest)-1; i++ {
		v, err := in.Eval(ctx, rest[i], env)
		if err != nil {
			return nil, nil, err
		}
		if IsTruthy(v) {
			return nil, v, nil
		}
	}
	return &tailNext{expr: rest[len(rest)-1], env: env}, nil, nil
}

func sfWhen(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	rest, err := forms("when", form.Cdr)
	if err != nil || len(rest) < 1 {
		return nil, nil, badForm(form)
	}
	test, err := in.Eval(ctx, rest[0], env)
	if err != nil {
		return nil, nil, err
	}
	if !IsTruthy(test) {
		return nil, Unspecified, nil
	}
	return in.evalBody(ctx, rest[1:], env)
}

func sfUnless(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	rest, err := forms("unless", form.Cdr)
	if err != nil || len(rest) < 1 {
		return nil, nil, badForm(form)
	}
	test, err := in.Eval(ctx, rest[0], env)
	if err != nil {
		return nil, nil, err
	}
	if IsTruthy(test) {
		return nil, Unspecified, nil
	}
	return in.evalBody(ctx, rest[1:], env)
}

func sfDo(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	rest, err := forms("do", form.Cdr)
	if err != nil || len(rest) < 2 {
		return nil, nil, badForm(form)
	}
	specs, err := ListToSlice(rest[0])
	if err != nil {
		return nil, nil, badForm(form)
	}
	type doVar struct {
		name Symbol
		step Value // nil = no step
	}
	vars := make([]doVar, len(specs))
	frame := NewEnv(env)
	for i, sp := range specs {
		parts, err := ListToSlice(sp)
		if err != nil || len(parts) < 2 || len(parts) > 3 {
			return nil, nil, Errorf("do: bad variable spec %s", WriteString(sp))
		}
		name, ok := parts[0].(Symbol)
		if !ok {
			return nil, nil, badForm(form)
		}
		init, err := in.Eval(ctx, parts[1], env)
		if err != nil {
			return nil, nil, err
		}
		frame.Define(name, init)
		vars[i] = doVar{name: name}
		if len(parts) == 3 {
			vars[i].step = parts[2]
		}
	}
	testParts, err := ListToSlice(rest[1])
	if err != nil || len(testParts) < 1 {
		return nil, nil, Errorf("do: bad test clause")
	}
	body := rest[2:]
	for {
		t, err := in.Eval(ctx, testParts[0], frame)
		if err != nil {
			return nil, nil, err
		}
		if IsTruthy(t) {
			return in.evalBody(ctx, testParts[1:], frame)
		}
		for _, b := range body {
			if _, err := in.Eval(ctx, b, frame); err != nil {
				return nil, nil, err
			}
		}
		next := make([]Value, len(vars))
		for i, v := range vars {
			if v.step == nil {
				val, _ := frame.Lookup(v.name)
				next[i] = val
				continue
			}
			val, err := in.Eval(ctx, v.step, frame)
			if err != nil {
				return nil, nil, err
			}
			next[i] = val
		}
		for i, v := range vars {
			frame.Define(v.name, next[i])
		}
	}
}

func sfDelay(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	rest, err := forms("delay", form.Cdr)
	if err != nil || len(rest) != 1 {
		return nil, nil, badForm(form)
	}
	return nil, &Promise{thunk: &Closure{Body: rest, Env: env}}, nil
}

func sfQuasiquote(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	rest, err := forms("quasiquote", form.Cdr)
	if err != nil || len(rest) != 1 {
		return nil, nil, badForm(form)
	}
	v, err := in.quasi(ctx, rest[0], env, 1)
	return nil, v, err
}

func (in *Interp) quasi(ctx *core.Context, tpl Value, env *Env, depth int) (Value, error) {
	p, ok := tpl.(*Pair)
	if !ok {
		return tpl, nil
	}
	if s, ok := p.Car.(Symbol); ok {
		switch s {
		case "unquote":
			parts, err := ListToSlice(p.Cdr)
			if err != nil || len(parts) != 1 {
				return nil, Errorf("bad unquote")
			}
			if depth == 1 {
				return in.Eval(ctx, parts[0], env)
			}
			inner, err := in.quasi(ctx, parts[0], env, depth-1)
			if err != nil {
				return nil, err
			}
			return List(Symbol("unquote"), inner), nil
		case "quasiquote":
			parts, err := ListToSlice(p.Cdr)
			if err != nil || len(parts) != 1 {
				return nil, Errorf("bad nested quasiquote")
			}
			inner, err := in.quasi(ctx, parts[0], env, depth+1)
			if err != nil {
				return nil, err
			}
			return List(Symbol("quasiquote"), inner), nil
		}
	}
	// Element-wise walk, handling unquote-splicing.
	var items []Value
	var cur Value = tpl
	for {
		pp, ok := cur.(*Pair)
		if !ok {
			break
		}
		if el, ok := pp.Car.(*Pair); ok {
			if s, ok := el.Car.(Symbol); ok && s == "unquote-splicing" && depth == 1 {
				parts, err := ListToSlice(el.Cdr)
				if err != nil || len(parts) != 1 {
					return nil, Errorf("bad unquote-splicing")
				}
				spliced, err := in.Eval(ctx, parts[0], env)
				if err != nil {
					return nil, err
				}
				sl, err := ListToSlice(spliced)
				if err != nil {
					return nil, Errorf("unquote-splicing of non-list")
				}
				items = append(items, sl...)
				cur = pp.Cdr
				continue
			}
		}
		if s, ok := pp.Car.(Symbol); ok && (s == "unquote") {
			// Dotted unquote tail: `(a . ,b)
			break
		}
		el, err := in.quasi(ctx, pp.Car, env, depth)
		if err != nil {
			return nil, err
		}
		items = append(items, el)
		cur = pp.Cdr
	}
	var tail Value = Empty
	switch t := cur.(type) {
	case *emptyT:
	case *Pair:
		v, err := in.quasi(ctx, t, env, depth)
		if err != nil {
			return nil, err
		}
		tail = v
	default:
		tail = cur
	}
	out := tail
	for i := len(items) - 1; i >= 0; i-- {
		out = Cons(items[i], out)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// STING forms

// vpArg resolves an optional VP operand: a *core.VP value or an integer
// index into the VM's vp-vector; missing means the current VP.
func (in *Interp) vpArg(ctx *core.Context, args []Value, idx int, env *Env) (*core.VP, error) {
	if idx >= len(args) {
		return ctx.VP(), nil
	}
	v, err := in.Eval(ctx, args[idx], env)
	if err != nil {
		return nil, err
	}
	return coerceVP(ctx, v)
}

func coerceVP(ctx *core.Context, v Value) (*core.VP, error) {
	switch x := v.(type) {
	case *core.VP:
		return x, nil
	case int64:
		return ctx.VM().VP(int(x)), nil
	case *unspecifiedT:
		return ctx.VP(), nil
	default:
		return nil, Errorf("not a vp: %s", WriteString(v))
	}
}

// (fork-thread expr [vp]) creates a thread to evaluate expr and schedules
// it on vp (default: the current VP).
func sfForkThread(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	rest, err := forms("fork-thread", form.Cdr)
	if err != nil || len(rest) < 1 || len(rest) > 2 {
		return nil, nil, badForm(form)
	}
	vp, err := in.vpArg(ctx, rest, 1, env)
	if err != nil {
		return nil, nil, err
	}
	t := ctx.Fork(in.exprThunk(rest[0], env), vp)
	return nil, t, nil
}

// (create-thread expr) creates a delayed thread.
func sfCreateThread(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	rest, err := forms("create-thread", form.Cdr)
	if err != nil || len(rest) != 1 {
		return nil, nil, badForm(form)
	}
	t := ctx.CreateThread(in.exprThunk(rest[0], env))
	return nil, t, nil
}

// (future expr) is fork-thread with result-parallel framing; touch works on
// the returned thread.
func sfFuture(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	rest, err := forms("future", form.Cdr)
	if err != nil || len(rest) != 1 {
		return nil, nil, badForm(form)
	}
	t := ctx.Fork(in.exprThunk(rest[0], env), nil)
	return nil, t, nil
}

// (spawn ts [e1 e2 ...]) deposits a tuple of threads evaluating the e's.
func sfSpawn(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	rest, err := forms("spawn", form.Cdr)
	if err != nil || len(rest) != 2 {
		return nil, nil, badForm(form)
	}
	tsv, err := in.Eval(ctx, rest[0], env)
	if err != nil {
		return nil, nil, err
	}
	ts, ok := tsv.(tspace.TupleSpace)
	if !ok {
		return nil, nil, Errorf("spawn: not a tuple space: %s", WriteString(tsv))
	}
	exprs, err := ListToSlice(rest[1])
	if err != nil {
		return nil, nil, badForm(form)
	}
	thunks := make([]core.Thunk, len(exprs))
	for i, e := range exprs {
		thunks[i] = in.exprThunk(e, env)
	}
	threads, err := ts.Spawn(ctx, thunks...)
	if err != nil {
		return nil, nil, err
	}
	out := make([]Value, len(threads))
	for i, t := range threads {
		out[i] = t
	}
	return nil, List(out...), nil
}

func sfWithoutPreemption(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	body, err := forms("without-preemption", form.Cdr)
	if err != nil {
		return nil, nil, err
	}
	var out Value = Unspecified
	var evalErr error
	ctx.WithoutPreemption(func() {
		for _, b := range body {
			out, evalErr = in.Eval(ctx, b, env)
			if evalErr != nil {
				return
			}
		}
	})
	return nil, out, evalErr
}

func sfWithoutInterrupts(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	body, err := forms("without-interrupts", form.Cdr)
	if err != nil {
		return nil, nil, err
	}
	var out Value = Unspecified
	var evalErr error
	ctx.WithoutInterrupts(func() {
		for _, b := range body {
			out, evalErr = in.Eval(ctx, b, env)
			if evalErr != nil {
				return
			}
		}
	})
	return nil, out, evalErr
}

// (with-mutex m body ...) holds m around body, releasing on error.
func sfWithMutex(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	rest, err := forms("with-mutex", form.Cdr)
	if err != nil || len(rest) < 1 {
		return nil, nil, badForm(form)
	}
	mv, err := in.Eval(ctx, rest[0], env)
	if err != nil {
		return nil, nil, err
	}
	m, ok := mv.(*synch.Mutex)
	if !ok {
		return nil, nil, Errorf("with-mutex: not a mutex: %s", WriteString(mv))
	}
	m.Acquire(ctx)
	defer m.Release()
	var out Value = Unspecified
	for _, b := range rest[1:] {
		out, err = in.Eval(ctx, b, env)
		if err != nil {
			return nil, nil, err
		}
	}
	return nil, out, nil
}

// (fluid-let ((key val) ...) body ...) extends the thread's dynamic
// environment for the body's extent.
func sfFluidLet(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	rest, err := forms("fluid-let", form.Cdr)
	if err != nil || len(rest) < 1 {
		return nil, nil, badForm(form)
	}
	names, inits, err := parseBindings(rest[0])
	if err != nil {
		return nil, nil, err
	}
	var out Value = Unspecified
	var evalErr error
	var run func(i int)
	run = func(i int) {
		if i == len(names) {
			for _, b := range rest[1:] {
				out, evalErr = in.Eval(ctx, b, env)
				if evalErr != nil {
					return
				}
			}
			return
		}
		var v Value
		v, evalErr = in.Eval(ctx, inits[i], env)
		if evalErr != nil {
			return
		}
		ctx.FluidLet(names[i], v, func() { run(i + 1) })
	}
	run(0)
	return nil, out, evalErr
}

// tuple-space binding forms: (get ts (tpl ...) body ...) removes a matching
// tuple, binding ?formals in body; rd is the non-destructive variant. With
// no body the resolved tuple is returned as a list.
func sfTSGet(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	return tsBindingForm(in, ctx, form, env, true)
}

func sfTSRd(in *Interp, ctx *core.Context, form *Pair, env *Env) (*tailNext, Value, error) {
	return tsBindingForm(in, ctx, form, env, false)
}

func tsBindingForm(in *Interp, ctx *core.Context, form *Pair, env *Env, remove bool) (*tailNext, Value, error) {
	name := "rd"
	if remove {
		name = "get"
	}
	rest, err := forms(name, form.Cdr)
	if err != nil || len(rest) < 2 {
		return nil, nil, badForm(form)
	}
	tsv, err := in.Eval(ctx, rest[0], env)
	if err != nil {
		return nil, nil, err
	}
	ts, ok := tsv.(tspace.TupleSpace)
	if !ok {
		return nil, nil, Errorf("%s: not a tuple space: %s", name, WriteString(tsv))
	}
	tpl, err := in.evalTemplate(ctx, rest[1], env)
	if err != nil {
		return nil, nil, err
	}
	tup, bind, err := in.MatchTuple(ctx, ts, tpl, remove)
	if err != nil {
		return nil, nil, err
	}
	if len(rest) == 2 {
		return nil, List(tup...), nil
	}
	frame := NewEnv(env)
	for k, v := range bind {
		frame.Define(Symbol(k), schemeValue(v))
	}
	return in.evalBody(ctx, rest[2:], frame)
}

// MatchTuple runs one tuple-space matching operation (get when remove,
// rd otherwise) with the transaction routing both engines share: inside an
// (atomic ...) extent the match rides the active transaction — wire
// lowering for fabric spaces included — otherwise it hits the space
// directly.
func (in *Interp) MatchTuple(ctx *core.Context, ts tspace.TupleSpace, tpl tspace.Template, remove bool) (tspace.Tuple, tspace.Bindings, error) {
	if tx, active := activeTxn(ctx); active {
		return txnMatch(tx, ts, tpl, remove)
	}
	if remove {
		return ts.Get(ctx, tpl)
	}
	return ts.Rd(ctx, tpl)
}

// evalTemplate builds a template: ?x symbols become formals, bare symbols
// and other atoms self-quote (templates are patterns, not expressions), a
// ,x unquote or any compound form evaluates — so (get ts (job ?n)) matches
// the literal tag job while (get ts (,key ?n)) matches the value of key.
func (in *Interp) evalTemplate(ctx *core.Context, v Value, env *Env) (tspace.Template, error) {
	items, err := ListToSlice(v)
	if err != nil {
		return nil, Errorf("bad template: %v", err)
	}
	tpl := make(tspace.Template, len(items))
	for i, it := range items {
		switch x := it.(type) {
		case Symbol:
			if len(x) > 0 && x[0] == '?' {
				tpl[i] = tspace.F(string(x[1:]))
			} else {
				tpl[i] = x // literal tag
			}
		case *Pair:
			expr := it
			if s, ok := x.Car.(Symbol); ok && s == "unquote" {
				parts, err := ListToSlice(x.Cdr)
				if err != nil || len(parts) != 1 {
					return nil, Errorf("bad template unquote")
				}
				expr = parts[0]
			}
			ev, err := in.Eval(ctx, expr, env)
			if err != nil {
				return nil, err
			}
			tpl[i] = tupleValue(ev)
		default:
			tpl[i] = tupleValue(it)
		}
	}
	return tpl, nil
}

// tupleValue converts Scheme values to the representation tuple matching
// uses (strings normalize to Go strings so they hash and compare by value).
func tupleValue(v Value) core.Value {
	if s, ok := v.(*SString); ok {
		return s.String()
	}
	return v
}

// ToTupleValue exposes tupleValue to other engines: the Scheme→tuple
// representation change templates and deposits share.
func ToTupleValue(v Value) core.Value { return tupleValue(v) }

// FromTupleValue exposes schemeValue to other engines: the tuple→Scheme
// representation change binding results share.
func FromTupleValue(v core.Value) Value { return schemeValue(v) }

// CoerceVP exposes the VP-operand coercion (a *core.VP, an index, or
// unspecified for the current VP) shared by fork-thread under both engines.
func CoerceVP(ctx *core.Context, v Value) (*core.VP, error) { return coerceVP(ctx, v) }

// schemeValue converts tuple-space results back to Scheme values.
func schemeValue(v core.Value) Value {
	switch x := v.(type) {
	case string:
		return NewSString(x)
	case int:
		return int64(x)
	default:
		return v
	}
}
