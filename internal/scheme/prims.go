package scheme

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

func (in *Interp) prim(name string, min, max int, fn PrimFn) {
	in.fixnumPrim(name, min, max, fn, nil)
}

// fixnumPrim defines a primitive that also carries an int64 kernel.
func (in *Interp) fixnumPrim(name string, min, max int, fn PrimFn, kernel FixnumFn) {
	in.global.Define(Symbol(name), &Primitive{Name: Symbol(name), Min: min, Max: max, Fn: fn, Fixnum: kernel})
}

// numeric helpers -----------------------------------------------------------

func numOf(v Value) (float64, bool, error) { // value, isFloat, error
	switch x := v.(type) {
	case int64:
		return float64(x), false, nil
	case float64:
		return x, true, nil
	default:
		return 0, false, Errorf("not a number: %s", WriteString(v))
	}
}

func intOf(v Value) (int64, error) {
	switch x := v.(type) {
	case int64:
		return x, nil
	case float64:
		if x == math.Trunc(x) {
			return int64(x), nil
		}
		return 0, Errorf("not an integer: %s", WriteString(v))
	default:
		return 0, Errorf("not an integer: %s", WriteString(v))
	}
}

// The int64 operations of the arithmetic and comparison primitives. The
// primitive's Fn and its Fixnum kernel call the same function on int64
// operands, so the boxed and the unboxed path cannot disagree. Overflow
// wraps, as int64 arithmetic does.
func addInt(x, y int64) int64 { return x + y }
func subInt(x, y int64) int64 { return x - y }
func mulInt(x, y int64) int64 { return x * y }
func quoInt(x, y int64) int64 { return x / y }
func remInt(x, y int64) int64 { return x % y }
func modInt(x, y int64) int64 {
	m := x % y
	if (m < 0 && y > 0) || (m > 0 && y < 0) {
		m += y
	}
	return m
}

func numEq[T int64 | float64](x, y T) bool { return x == y }
func numLt[T int64 | float64](x, y T) bool { return x < y }
func numGt[T int64 | float64](x, y T) bool { return x > y }
func numLe[T int64 | float64](x, y T) bool { return x <= y }
func numGe[T int64 | float64](x, y T) bool { return x >= y }

// foldInts is foldNums on int64 operands alone.
func foldInts(acc int64, args []int64, fi func(a, b int64) int64) int64 {
	for _, x := range args {
		acc = fi(acc, x)
	}
	return acc
}

// foldNums folds args into acc, an int64 or float64, left to right; the
// result turns float at the first float operand.
func foldNums(name string, acc Value, args []Value,
	fi func(a, b int64) int64, ff func(a, b float64) float64) (Value, error) {
	accI, isI := acc.(int64)
	accF, isF := acc.(float64)
	if !isI && !isF {
		return nil, Errorf("%s: not a number: %s", name, WriteString(acc))
	}
	float := isF
	if float {
		accI = 0
	} else {
		accF = float64(accI)
	}
	for _, a := range args {
		switch x := a.(type) {
		case int64:
			if float {
				accF = ff(accF, float64(x))
			} else {
				accI = fi(accI, x)
				accF = float64(accI)
			}
		case float64:
			if !float {
				float = true
				accF = float64(accI)
			}
			accF = ff(accF, x)
		default:
			return nil, Errorf("%s: not a number: %s", name, WriteString(a))
		}
	}
	if float {
		return accF, nil
	}
	return accI, nil
}

// compareChain answers whether every adjacent pair is in order: a pair of
// integers by ci, exactly (float64 holds integers exactly only up to
// 2^53), any pair with a float in it by cf.
func compareChain(args []Value, ci func(a, b int64) bool, cf func(a, b float64) bool) (Value, error) {
	for i := 0; i+1 < len(args); i++ {
		x, xok := args[i].(int64)
		y, yok := args[i+1].(int64)
		if xok && yok {
			if !ci(x, y) {
				return false, nil
			}
			continue
		}
		a, _, err := numOf(args[i])
		if err != nil {
			return nil, err
		}
		b, _, err := numOf(args[i+1])
		if err != nil {
			return nil, err
		}
		if !cf(a, b) {
			return false, nil
		}
	}
	return true, nil
}

func stringArg(name string, v Value) (*SString, error) {
	s, ok := v.(*SString)
	if !ok {
		return nil, Errorf("%s: not a string: %s", name, WriteString(v))
	}
	return s, nil
}

// installPrimitives populates the standard environment.
func installPrimitives(in *Interp) {
	// Pairs and lists.
	in.prim("cons", 2, 2, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		return Cons(a[0], a[1]), nil
	})
	in.prim("car", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		p, ok := a[0].(*Pair)
		if !ok {
			return nil, Errorf("car: not a pair: %s", WriteString(a[0]))
		}
		return p.Car, nil
	})
	in.prim("cdr", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		p, ok := a[0].(*Pair)
		if !ok {
			return nil, Errorf("cdr: not a pair: %s", WriteString(a[0]))
		}
		return p.Cdr, nil
	})
	in.prim("set-car!", 2, 2, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		p, ok := a[0].(*Pair)
		if !ok {
			return nil, Errorf("set-car!: not a pair")
		}
		p.Car = a[1]
		return Unspecified, nil
	})
	in.prim("set-cdr!", 2, 2, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		p, ok := a[0].(*Pair)
		if !ok {
			return nil, Errorf("set-cdr!: not a pair")
		}
		p.Cdr = a[1]
		return Unspecified, nil
	})
	in.prim("list", 0, -1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		return List(a...), nil
	})
	in.prim("length", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		items, err := ListToSlice(a[0])
		if err != nil {
			return nil, err
		}
		return int64(len(items)), nil
	})
	in.prim("append", 0, -1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		if len(a) == 0 {
			return Empty, nil
		}
		var items []Value
		for _, l := range a[:len(a)-1] {
			sl, err := ListToSlice(l)
			if err != nil {
				return nil, err
			}
			items = append(items, sl...)
		}
		var out Value = a[len(a)-1]
		for i := len(items) - 1; i >= 0; i-- {
			out = Cons(items[i], out)
		}
		return out, nil
	})
	in.prim("reverse", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		items, err := ListToSlice(a[0])
		if err != nil {
			return nil, err
		}
		var out Value = Empty
		for _, it := range items {
			out = Cons(it, out)
		}
		return out, nil
	})
	in.prim("map", 2, -1, func(in *Interp, ctx *core.Context, a []Value) (Value, error) {
		lists := make([][]Value, len(a)-1)
		n := -1
		for i, l := range a[1:] {
			sl, err := ListToSlice(l)
			if err != nil {
				return nil, err
			}
			lists[i] = sl
			if n < 0 || len(sl) < n {
				n = len(sl)
			}
		}
		out := make([]Value, n)
		for i := 0; i < n; i++ {
			args := make([]Value, len(lists))
			for j := range lists {
				args[j] = lists[j][i]
			}
			v, err := in.Apply(ctx, a[0], args)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return List(out...), nil
	})
	in.prim("for-each", 2, -1, func(in *Interp, ctx *core.Context, a []Value) (Value, error) {
		lists := make([][]Value, len(a)-1)
		n := -1
		for i, l := range a[1:] {
			sl, err := ListToSlice(l)
			if err != nil {
				return nil, err
			}
			lists[i] = sl
			if n < 0 || len(sl) < n {
				n = len(sl)
			}
		}
		for i := 0; i < n; i++ {
			args := make([]Value, len(lists))
			for j := range lists {
				args[j] = lists[j][i]
			}
			if _, err := in.Apply(ctx, a[0], args); err != nil {
				return nil, err
			}
		}
		return Unspecified, nil
	})
	in.prim("apply", 2, -1, func(in *Interp, ctx *core.Context, a []Value) (Value, error) {
		last, err := ListToSlice(a[len(a)-1])
		if err != nil {
			return nil, err
		}
		args := append(append([]Value{}, a[1:len(a)-1]...), last...)
		return in.Apply(ctx, a[0], args)
	})
	in.prim("sort", 2, 2, func(in *Interp, ctx *core.Context, a []Value) (Value, error) {
		items, err := ListToSlice(a[0])
		if err != nil {
			return nil, err
		}
		var sortErr error
		sort.SliceStable(items, func(i, j int) bool {
			if sortErr != nil {
				return false
			}
			v, err := in.Apply(ctx, a[1], []Value{items[i], items[j]})
			if err != nil {
				sortErr = err
				return false
			}
			return IsTruthy(v)
		})
		if sortErr != nil {
			return nil, sortErr
		}
		return List(items...), nil
	})

	// Predicates.
	pred := func(name string, f func(Value) bool) {
		in.prim(name, 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
			return f(a[0]), nil
		})
	}
	pred("null?", func(v Value) bool { _, ok := v.(*emptyT); return ok })
	pred("pair?", func(v Value) bool { _, ok := v.(*Pair); return ok })
	pred("list?", func(v Value) bool { _, err := ListToSlice(v); return err == nil })
	pred("symbol?", func(v Value) bool { _, ok := v.(Symbol); return ok })
	pred("string?", func(v Value) bool { _, ok := v.(*SString); return ok })
	pred("char?", func(v Value) bool { _, ok := v.(Char); return ok })
	pred("boolean?", func(v Value) bool { _, ok := v.(bool); return ok })
	pred("vector?", func(v Value) bool { _, ok := v.(*Vector); return ok })
	pred("number?", func(v Value) bool {
		switch v.(type) {
		case int64, float64:
			return true
		}
		return false
	})
	pred("integer?", func(v Value) bool { _, ok := v.(int64); return ok })
	pred("real?", func(v Value) bool {
		switch v.(type) {
		case int64, float64:
			return true
		}
		return false
	})
	pred("procedure?", func(v Value) bool {
		switch v.(type) {
		case *Closure, *Primitive, Procedure:
			return true
		}
		return false
	})
	pred("promise?", func(v Value) bool { _, ok := v.(*Promise); return ok })
	pred("zero?", func(v Value) bool {
		f, _, err := numOf(v)
		return err == nil && f == 0
	})
	pred("positive?", func(v Value) bool {
		f, _, err := numOf(v)
		return err == nil && f > 0
	})
	pred("negative?", func(v Value) bool {
		f, _, err := numOf(v)
		return err == nil && f < 0
	})
	pred("odd?", func(v Value) bool {
		i, err := intOf(v)
		return err == nil && i%2 != 0
	})
	pred("even?", func(v Value) bool {
		i, err := intOf(v)
		return err == nil && i%2 == 0
	})
	in.prim("not", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		return !IsTruthy(a[0]), nil
	})
	in.prim("eq?", 2, 2, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		return Eqv(a[0], a[1]), nil
	})
	in.prim("eqv?", 2, 2, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		return Eqv(a[0], a[1]), nil
	})
	in.prim("equal?", 2, 2, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		return Equal(a[0], a[1]), nil
	})

	// Arithmetic.
	in.fixnumPrim("+", 0, -1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		return foldNums("+", int64(0), a, addInt, func(x, y float64) float64 { return x + y })
	}, func(a []int64) (int64, Value, bool) { return foldInts(0, a, addInt), nil, true })
	in.fixnumPrim("*", 0, -1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		return foldNums("*", int64(1), a, mulInt, func(x, y float64) float64 { return x * y })
	}, func(a []int64) (int64, Value, bool) { return foldInts(1, a, mulInt), nil, true })
	in.fixnumPrim("-", 1, -1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		acc, rest := Value(int64(0)), a
		if len(a) > 1 {
			acc, rest = a[0], a[1:]
		}
		return foldNums("-", acc, rest, subInt, func(x, y float64) float64 { return x - y })
	}, func(a []int64) (int64, Value, bool) {
		acc, rest := int64(0), a
		if len(a) > 1 {
			acc, rest = a[0], a[1:]
		}
		return foldInts(acc, rest, subInt), nil, true
	})
	in.prim("/", 1, -1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		first, rest := Value(int64(1)), a
		if len(a) > 1 {
			first, rest = a[0], a[1:]
		}
		acc, _, err := numOf(first)
		if err != nil {
			return nil, err
		}
		// While every quotient is an exact integer it is kept in int64, as
		// compareChain compares: float64 holds integers exactly only up to
		// 2^53. The first inexact or float step turns the chain float, and
		// it stays float even where it rounds to a whole number: integers
		// that do not divide exactly have no integer quotient.
		accI, exact := first.(int64)
		for _, x := range rest {
			f, _, err := numOf(x)
			if err != nil {
				return nil, err
			}
			if f == 0 {
				return nil, Errorf("/: division by zero")
			}
			if y, ok := x.(int64); exact && ok && accI%y == 0 {
				accI /= y // MinInt64 / -1 wraps, as quotient does
				acc = float64(accI)
				continue
			}
			exact = false
			acc /= f
		}
		if exact {
			return accI, nil
		}
		return acc, nil
	})
	// quotient, remainder and modulo: two integers, a nonzero divisor.
	for _, d := range []struct {
		name string
		op   func(x, y int64) int64
	}{{"quotient", quoInt}, {"remainder", remInt}, {"modulo", modInt}} {
		name, op := d.name, d.op
		in.fixnumPrim(name, 2, 2, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
			x, err := intOf(a[0])
			if err != nil {
				return nil, err
			}
			y, err := intOf(a[1])
			if err != nil {
				return nil, err
			}
			if y == 0 {
				return nil, Errorf("%s: division by zero", name)
			}
			return op(x, y), nil
		}, func(a []int64) (int64, Value, bool) {
			if a[1] == 0 {
				return 0, nil, false
			}
			return op(a[0], a[1]), nil, true
		})
	}
	in.prim("abs", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		switch x := a[0].(type) {
		case int64:
			if x < 0 {
				return -x, nil
			}
			return x, nil
		case float64:
			return math.Abs(x), nil
		}
		return nil, Errorf("abs: not a number")
	})
	in.prim("min", 1, -1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		return foldNums("min", a[0], a[1:],
			func(x, y int64) int64 {
				if y < x {
					return y
				}
				return x
			},
			math.Min)
	})
	in.prim("max", 1, -1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		return foldNums("max", a[0], a[1:],
			func(x, y int64) int64 {
				if y > x {
					return y
				}
				return x
			},
			math.Max)
	})
	in.prim("gcd", 0, -1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		g := int64(0)
		for _, v := range a {
			x, err := intOf(v)
			if err != nil {
				return nil, err
			}
			if x < 0 {
				x = -x
			}
			for x != 0 {
				g, x = x, g%x
			}
		}
		return g, nil
	})
	in.prim("expt", 2, 2, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		b, bi, err := numOf(a[0])
		if err != nil {
			return nil, err
		}
		e, ei, err := numOf(a[1])
		if err != nil {
			return nil, err
		}
		r := math.Pow(b, e)
		if !bi && !ei && r == math.Trunc(r) && math.Abs(r) < 1e15 {
			return int64(r), nil
		}
		return r, nil
	})
	in.prim("sqrt", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		f, _, err := numOf(a[0])
		if err != nil {
			return nil, err
		}
		r := math.Sqrt(f)
		if r == math.Trunc(r) {
			return int64(r), nil
		}
		return r, nil
	})
	for _, fl := range []struct {
		name string
		f    func(float64) float64
	}{{"floor", math.Floor}, {"ceiling", math.Ceil}, {"truncate", math.Trunc}, {"round", math.Round}} {
		f := fl.f
		in.prim(fl.name, 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
			switch x := a[0].(type) {
			case int64:
				return x, nil
			case float64:
				return int64(f(x)), nil
			}
			return nil, Errorf("not a number")
		})
	}
	in.prim("exact->inexact", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		f, _, err := numOf(a[0])
		return f, err
	})
	compare := func(name string, ci func(x, y int64) bool, cf func(x, y float64) bool) {
		in.fixnumPrim(name, 2, -1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
			return compareChain(a, ci, cf)
		}, func(a []int64) (int64, Value, bool) {
			for i := 0; i+1 < len(a); i++ {
				if !ci(a[i], a[i+1]) {
					return 0, false, true
				}
			}
			return 0, true, true
		})
	}
	compare("=", numEq[int64], numEq[float64])
	compare("<", numLt[int64], numLt[float64])
	compare(">", numGt[int64], numGt[float64])
	compare("<=", numLe[int64], numLe[float64])
	compare(">=", numGe[int64], numGe[float64])

	// Strings, symbols, characters.
	in.prim("string-length", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		s, err := stringArg("string-length", a[0])
		if err != nil {
			return nil, err
		}
		return int64(len(s.Runes)), nil
	})
	in.prim("string-append", 0, -1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		var b strings.Builder
		for _, v := range a {
			s, err := stringArg("string-append", v)
			if err != nil {
				return nil, err
			}
			b.WriteString(s.String())
		}
		return NewSString(b.String()), nil
	})
	in.prim("substring", 3, 3, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		s, err := stringArg("substring", a[0])
		if err != nil {
			return nil, err
		}
		from, err := intOf(a[1])
		if err != nil {
			return nil, err
		}
		to, err := intOf(a[2])
		if err != nil {
			return nil, err
		}
		if from < 0 || to > int64(len(s.Runes)) || from > to {
			return nil, Errorf("substring: bad range")
		}
		return &SString{Runes: append([]rune{}, s.Runes[from:to]...)}, nil
	})
	in.prim("string-ref", 2, 2, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		s, err := stringArg("string-ref", a[0])
		if err != nil {
			return nil, err
		}
		i, err := intOf(a[1])
		if err != nil {
			return nil, err
		}
		if i < 0 || i >= int64(len(s.Runes)) {
			return nil, Errorf("string-ref: index out of range")
		}
		return Char(s.Runes[i]), nil
	})
	in.prim("string=?", 2, 2, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		x, err := stringArg("string=?", a[0])
		if err != nil {
			return nil, err
		}
		y, err := stringArg("string=?", a[1])
		if err != nil {
			return nil, err
		}
		return x.String() == y.String(), nil
	})
	in.prim("string<?", 2, 2, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		x, err := stringArg("string<?", a[0])
		if err != nil {
			return nil, err
		}
		y, err := stringArg("string<?", a[1])
		if err != nil {
			return nil, err
		}
		return x.String() < y.String(), nil
	})
	in.prim("string->symbol", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		s, err := stringArg("string->symbol", a[0])
		if err != nil {
			return nil, err
		}
		return Symbol(s.String()), nil
	})
	in.prim("symbol->string", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		s, ok := a[0].(Symbol)
		if !ok {
			return nil, Errorf("symbol->string: not a symbol")
		}
		return NewSString(string(s)), nil
	})
	in.prim("number->string", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		return NewSString(DisplayString(a[0])), nil
	})
	in.prim("string->number", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		s, err := stringArg("string->number", a[0])
		if err != nil {
			return nil, err
		}
		if i, err := strconv.ParseInt(s.String(), 10, 64); err == nil {
			return i, nil
		}
		if f, err := strconv.ParseFloat(s.String(), 64); err == nil {
			return f, nil
		}
		return false, nil
	})
	in.prim("string->list", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		s, err := stringArg("string->list", a[0])
		if err != nil {
			return nil, err
		}
		out := make([]Value, len(s.Runes))
		for i, r := range s.Runes {
			out[i] = Char(r)
		}
		return List(out...), nil
	})
	in.prim("char->integer", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		c, ok := a[0].(Char)
		if !ok {
			return nil, Errorf("char->integer: not a char")
		}
		return int64(c), nil
	})
	in.prim("integer->char", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		i, err := intOf(a[0])
		if err != nil {
			return nil, err
		}
		return Char(rune(i)), nil
	})
	in.prim("gensym", 0, 1, func(in *Interp, _ *core.Context, a []Value) (Value, error) {
		prefix := "g"
		if len(a) == 1 {
			prefix = DisplayString(a[0])
		}
		return Symbol(fmt.Sprintf("%s%d", prefix, in.gensyms.Add(1))), nil
	})

	// Vectors.
	in.prim("make-vector", 1, 2, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		n, err := intOf(a[0])
		if err != nil {
			return nil, err
		}
		var fill Value = Unspecified
		if len(a) == 2 {
			fill = a[1]
		}
		items := make([]Value, n)
		for i := range items {
			items[i] = fill
		}
		return &Vector{Items: items}, nil
	})
	in.prim("vector", 0, -1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		return &Vector{Items: append([]Value{}, a...)}, nil
	})
	in.prim("vector-length", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		v, ok := a[0].(*Vector)
		if !ok {
			return nil, Errorf("vector-length: not a vector")
		}
		return int64(len(v.Items)), nil
	})
	in.prim("vector-ref", 2, 2, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		v, ok := a[0].(*Vector)
		if !ok {
			return nil, Errorf("vector-ref: not a vector")
		}
		i, err := intOf(a[1])
		if err != nil {
			return nil, err
		}
		if i < 0 || i >= int64(len(v.Items)) {
			return nil, Errorf("vector-ref: index %d out of range", i)
		}
		return v.Items[i], nil
	})
	in.prim("vector-set!", 3, 3, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		v, ok := a[0].(*Vector)
		if !ok {
			return nil, Errorf("vector-set!: not a vector")
		}
		i, err := intOf(a[1])
		if err != nil {
			return nil, err
		}
		if i < 0 || i >= int64(len(v.Items)) {
			return nil, Errorf("vector-set!: index %d out of range", i)
		}
		v.Items[i] = a[2]
		return Unspecified, nil
	})
	in.prim("vector->list", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		v, ok := a[0].(*Vector)
		if !ok {
			return nil, Errorf("vector->list: not a vector")
		}
		return List(v.Items...), nil
	})
	in.prim("list->vector", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		items, err := ListToSlice(a[0])
		if err != nil {
			return nil, err
		}
		return &Vector{Items: items}, nil
	})

	// I/O and control.
	in.prim("display", 1, 1, func(in *Interp, _ *core.Context, a []Value) (Value, error) {
		fmt.Fprint(in.out, DisplayString(a[0]))
		return Unspecified, nil
	})
	in.prim("write", 1, 1, func(in *Interp, _ *core.Context, a []Value) (Value, error) {
		fmt.Fprint(in.out, WriteString(a[0]))
		return Unspecified, nil
	})
	in.prim("newline", 0, 0, func(in *Interp, _ *core.Context, a []Value) (Value, error) {
		fmt.Fprintln(in.out)
		return Unspecified, nil
	})
	in.prim("error", 1, -1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		return nil, &Error{Message: DisplayString(a[0]), Irritants: append([]Value(nil), a[1:]...)}
	})
	in.prim("values", 0, -1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		if len(a) == 1 {
			return a[0], nil
		}
		return &MultiValues{Values: append([]Value{}, a...)}, nil
	})
	in.prim("call-with-values", 2, 2, func(in *Interp, ctx *core.Context, a []Value) (Value, error) {
		v, err := in.Apply(ctx, a[0], nil)
		if err != nil {
			return nil, err
		}
		if mv, ok := v.(*MultiValues); ok {
			return in.Apply(ctx, a[1], mv.Values)
		}
		return in.Apply(ctx, a[1], []Value{v})
	})
	in.prim("force-promise", 1, 1, func(in *Interp, ctx *core.Context, a []Value) (Value, error) {
		p, ok := a[0].(*Promise)
		if !ok {
			return a[0], nil // forcing a non-promise returns it
		}
		if !p.done {
			v, err := in.Apply(ctx, p.thunk, nil)
			if err != nil {
				return nil, err
			}
			p.value = v
			p.done = true
			p.thunk = nil
		}
		return p.value, nil
	})
	in.prim("eval", 1, 1, func(in *Interp, ctx *core.Context, a []Value) (Value, error) {
		return in.Eval(ctx, a[0], in.global)
	})
	in.prim("read-string", 1, 1, func(_ *Interp, _ *core.Context, a []Value) (Value, error) {
		s, err := stringArg("read-string", a[0])
		if err != nil {
			return nil, err
		}
		return ReadOne(s.String())
	})
}
