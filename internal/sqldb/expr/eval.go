package expr

import (
	"fmt"
	"strings"

	"ordxml/internal/sqldb/sqltypes"
)

// Env supplies runtime bindings to the evaluator.
type Env struct {
	// Row is the current (possibly join-concatenated) tuple; ColRef.Idx
	// indexes into it.
	Row sqltypes.Row
	// Params are the values bound to `?` placeholders.
	Params []sqltypes.Value
	// Aggregates holds computed aggregate values for post-GROUP BY
	// expressions; Aggregate.Idx indexes into it.
	Aggregates sqltypes.Row
	// args is the stack a function call's arguments are evaluated onto, so
	// a call per row allocates none.
	args []sqltypes.Value
}

// Eval computes the value of e under env, with SQL NULL semantics: any
// comparison or arithmetic over NULL yields NULL; AND/OR use three-valued
// logic.
func Eval(e Expr, env *Env) (sqltypes.Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *Param:
		if x.Index < 0 || x.Index >= len(env.Params) {
			return sqltypes.Value{}, fmt.Errorf("parameter %d not bound (%d given)", x.Index+1, len(env.Params))
		}
		return env.Params[x.Index], nil
	case *ColRef:
		if x.Idx < 0 || x.Idx >= len(env.Row) {
			return sqltypes.Value{}, fmt.Errorf("column %s unresolved (idx %d, row width %d)", x, x.Idx, len(env.Row))
		}
		return env.Row[x.Idx], nil
	case *Unary:
		return evalUnary(x, env)
	case *Binary:
		return evalBinary(x, env)
	case *Between:
		return evalBetween(x, env)
	case *In:
		return evalIn(x, env)
	case *IsNull:
		v, err := Eval(x.X, env)
		if err != nil {
			return sqltypes.Value{}, err
		}
		return sqltypes.NewBool(v.IsNull() != x.Not), nil
	case *Call:
		return evalCall(x, env)
	case *Aggregate:
		if x.Idx < 0 || x.Idx >= len(env.Aggregates) {
			return sqltypes.Value{}, fmt.Errorf("aggregate %s evaluated outside GROUP BY context", x)
		}
		return env.Aggregates[x.Idx], nil
	default:
		return sqltypes.Value{}, fmt.Errorf("cannot evaluate %T", e)
	}
}

// EvalBool evaluates e as a WHERE-style predicate: NULL and FALSE both
// reject.
func EvalBool(e Expr, env *Env) (bool, error) {
	v, err := Eval(e, env)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	if v.Type() != sqltypes.Bool {
		return false, fmt.Errorf("predicate %s evaluated to %s, want BOOL", e, v.Type())
	}
	return v.Bool(), nil
}

func evalUnary(x *Unary, env *Env) (sqltypes.Value, error) {
	v, err := Eval(x.X, env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	if v.IsNull() {
		return sqltypes.NullValue(), nil
	}
	switch x.Op {
	case OpNot:
		if v.Type() != sqltypes.Bool {
			return sqltypes.Value{}, fmt.Errorf("NOT applied to %s", v.Type())
		}
		return sqltypes.NewBool(!v.Bool()), nil
	case OpNeg:
		switch v.Type() {
		case sqltypes.Int:
			return sqltypes.NewInt(-v.Int()), nil
		case sqltypes.Real:
			return sqltypes.NewReal(-v.Real()), nil
		}
		return sqltypes.Value{}, fmt.Errorf("unary - applied to %s", v.Type())
	}
	return sqltypes.Value{}, fmt.Errorf("bad unary op %v", x.Op)
}

func evalBinary(x *Binary, env *Env) (sqltypes.Value, error) {
	// AND/OR need three-valued logic with short-circuiting.
	if x.Op == OpAnd || x.Op == OpOr {
		return evalLogical(x, env)
	}
	l, err := Eval(x.L, env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	r, err := Eval(x.R, env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	if l.IsNull() || r.IsNull() {
		return sqltypes.NullValue(), nil
	}
	switch x.Op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		if !comparable(l, r) {
			return sqltypes.Value{}, fmt.Errorf("cannot compare %s with %s", l.Type(), r.Type())
		}
		c := sqltypes.Compare(l, r)
		var out bool
		switch x.Op {
		case OpEq:
			out = c == 0
		case OpNe:
			out = c != 0
		case OpLt:
			out = c < 0
		case OpLe:
			out = c <= 0
		case OpGt:
			out = c > 0
		case OpGe:
			out = c >= 0
		}
		return sqltypes.NewBool(out), nil
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return evalArith(x.Op, l, r)
	case OpConcat:
		ls, err := sqltypes.Coerce(l, sqltypes.Text)
		if err != nil {
			return sqltypes.Value{}, err
		}
		rs, err := sqltypes.Coerce(r, sqltypes.Text)
		if err != nil {
			return sqltypes.Value{}, err
		}
		return sqltypes.NewText(ls.Text() + rs.Text()), nil
	case OpLike:
		if l.Type() != sqltypes.Text || r.Type() != sqltypes.Text {
			return sqltypes.Value{}, fmt.Errorf("LIKE needs TEXT operands, got %s LIKE %s", l.Type(), r.Type())
		}
		return sqltypes.NewBool(likeMatch(l.Text(), r.Text())), nil
	}
	return sqltypes.Value{}, fmt.Errorf("bad binary op %v", x.Op)
}

func comparable(l, r sqltypes.Value) bool {
	num := func(t sqltypes.Type) bool {
		return t == sqltypes.Int || t == sqltypes.Real || t == sqltypes.Bool
	}
	if num(l.Type()) && num(r.Type()) {
		return true
	}
	return l.Type() == r.Type()
}

func evalLogical(x *Binary, env *Env) (sqltypes.Value, error) {
	l, err := Eval(x.L, env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	if !l.IsNull() && l.Type() != sqltypes.Bool {
		return sqltypes.Value{}, fmt.Errorf("%s applied to %s", x.Op, l.Type())
	}
	if x.Op == OpAnd && !l.IsNull() && !l.Bool() {
		return sqltypes.NewBool(false), nil
	}
	if x.Op == OpOr && !l.IsNull() && l.Bool() {
		return sqltypes.NewBool(true), nil
	}
	r, err := Eval(x.R, env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	if !r.IsNull() && r.Type() != sqltypes.Bool {
		return sqltypes.Value{}, fmt.Errorf("%s applied to %s", x.Op, r.Type())
	}
	if x.Op == OpAnd {
		switch {
		case !r.IsNull() && !r.Bool():
			return sqltypes.NewBool(false), nil
		case l.IsNull() || r.IsNull():
			return sqltypes.NullValue(), nil
		default:
			return sqltypes.NewBool(true), nil
		}
	}
	switch {
	case !r.IsNull() && r.Bool():
		return sqltypes.NewBool(true), nil
	case l.IsNull() || r.IsNull():
		return sqltypes.NullValue(), nil
	default:
		return sqltypes.NewBool(false), nil
	}
}

func evalArith(op Op, l, r sqltypes.Value) (sqltypes.Value, error) {
	num := func(v sqltypes.Value) bool {
		return v.Type() == sqltypes.Int || v.Type() == sqltypes.Real
	}
	if !num(l) || !num(r) {
		return sqltypes.Value{}, fmt.Errorf("arithmetic on %s and %s", l.Type(), r.Type())
	}
	if l.Type() == sqltypes.Real || r.Type() == sqltypes.Real {
		lf, rf := l.Real(), r.Real()
		switch op {
		case OpAdd:
			return sqltypes.NewReal(lf + rf), nil
		case OpSub:
			return sqltypes.NewReal(lf - rf), nil
		case OpMul:
			return sqltypes.NewReal(lf * rf), nil
		case OpDiv:
			if rf == 0 {
				return sqltypes.Value{}, fmt.Errorf("division by zero")
			}
			return sqltypes.NewReal(lf / rf), nil
		case OpMod:
			return sqltypes.Value{}, fmt.Errorf("%% on REAL")
		}
	}
	li, ri := l.Int(), r.Int()
	switch op {
	case OpAdd:
		return sqltypes.NewInt(li + ri), nil
	case OpSub:
		return sqltypes.NewInt(li - ri), nil
	case OpMul:
		return sqltypes.NewInt(li * ri), nil
	case OpDiv:
		if ri == 0 {
			return sqltypes.Value{}, fmt.Errorf("division by zero")
		}
		return sqltypes.NewInt(li / ri), nil
	case OpMod:
		if ri == 0 {
			return sqltypes.Value{}, fmt.Errorf("division by zero")
		}
		return sqltypes.NewInt(li % ri), nil
	}
	return sqltypes.Value{}, fmt.Errorf("bad arith op %v", op)
}

func evalBetween(x *Between, env *Env) (sqltypes.Value, error) {
	v, err := Eval(x.X, env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	lo, err := Eval(x.Lo, env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	hi, err := Eval(x.Hi, env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return sqltypes.NullValue(), nil
	}
	in := sqltypes.Compare(v, lo) >= 0 && sqltypes.Compare(v, hi) <= 0
	return sqltypes.NewBool(in != x.Not), nil
}

func evalIn(x *In, env *Env) (sqltypes.Value, error) {
	v, err := Eval(x.X, env)
	if err != nil {
		return sqltypes.Value{}, err
	}
	if v.IsNull() {
		return sqltypes.NullValue(), nil
	}
	sawNull := false
	for _, item := range x.List {
		iv, err := Eval(item, env)
		if err != nil {
			return sqltypes.Value{}, err
		}
		if iv.IsNull() {
			sawNull = true
			continue
		}
		if sqltypes.Compare(v, iv) == 0 {
			return sqltypes.NewBool(!x.Not), nil
		}
	}
	if sawNull {
		return sqltypes.NullValue(), nil
	}
	return sqltypes.NewBool(x.Not), nil
}

func evalCall(x *Call, env *Env) (sqltypes.Value, error) {
	if env == nil {
		env = &Env{}
	}
	// An argument that is a call itself pops its own arguments before this
	// call pushes the next one.
	base := len(env.args)
	defer func() { env.args = env.args[:base] }()
	for _, a := range x.Args {
		v, err := Eval(a, env)
		if err != nil {
			return sqltypes.Value{}, err
		}
		env.args = append(env.args, v)
	}
	fn, ok := scalarFuncs[x.Name]
	if !ok {
		return sqltypes.Value{}, fmt.Errorf("unknown function %s", x.Name)
	}
	return fn(env.args[base:len(env.args):len(env.args)])
}

type scalarFunc func([]sqltypes.Value) (sqltypes.Value, error)

var scalarFuncs = map[string]scalarFunc{
	"LENGTH": func(a []sqltypes.Value) (sqltypes.Value, error) {
		if err := arity("LENGTH", a, 1); err != nil {
			return sqltypes.Value{}, err
		}
		if a[0].IsNull() {
			return sqltypes.NullValue(), nil
		}
		switch a[0].Type() {
		case sqltypes.Text:
			return sqltypes.NewInt(int64(len(a[0].Text()))), nil
		case sqltypes.Blob:
			return sqltypes.NewInt(int64(len(a[0].Blob()))), nil
		}
		return sqltypes.Value{}, fmt.Errorf("LENGTH of %s", a[0].Type())
	},
	"UPPER": textFunc("UPPER", strings.ToUpper),
	"LOWER": textFunc("LOWER", strings.ToLower),
	"ABS": func(a []sqltypes.Value) (sqltypes.Value, error) {
		if err := arity("ABS", a, 1); err != nil {
			return sqltypes.Value{}, err
		}
		switch a[0].Type() {
		case sqltypes.Null:
			return sqltypes.NullValue(), nil
		case sqltypes.Int:
			v := a[0].Int()
			if v < 0 {
				v = -v
			}
			return sqltypes.NewInt(v), nil
		case sqltypes.Real:
			v := a[0].Real()
			if v < 0 {
				v = -v
			}
			return sqltypes.NewReal(v), nil
		}
		return sqltypes.Value{}, fmt.Errorf("ABS of %s", a[0].Type())
	},
	"SUBSTR": func(a []sqltypes.Value) (sqltypes.Value, error) {
		if len(a) != 2 && len(a) != 3 {
			return sqltypes.Value{}, fmt.Errorf("SUBSTR takes 2 or 3 arguments, got %d", len(a))
		}
		for _, v := range a {
			if v.IsNull() {
				return sqltypes.NullValue(), nil
			}
		}
		if a[0].Type() != sqltypes.Text || a[1].Type() != sqltypes.Int {
			return sqltypes.Value{}, fmt.Errorf("SUBSTR(%s, %s)", a[0].Type(), a[1].Type())
		}
		s := a[0].Text()
		start := int(a[1].Int()) - 1 // SQL is 1-based
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := len(s)
		if len(a) == 3 {
			if a[2].Type() != sqltypes.Int {
				return sqltypes.Value{}, fmt.Errorf("SUBSTR length is %s", a[2].Type())
			}
			if n := int(a[2].Int()); n >= 0 && start+n < end {
				end = start + n
			}
		}
		return sqltypes.NewText(s[start:end]), nil
	},
	// PREFIX_SUCC returns the smallest value strictly greater than every
	// value having the argument as a prefix — the exclusive upper bound of a
	// prefix range. Defined for BLOB and TEXT. It is the primitive that turns
	// "descendant of path P" into the index range [P, PREFIX_SUCC(P)).
	"PREFIX_SUCC": func(a []sqltypes.Value) (sqltypes.Value, error) {
		if err := arity("PREFIX_SUCC", a, 1); err != nil {
			return sqltypes.Value{}, err
		}
		if a[0].IsNull() {
			return sqltypes.NullValue(), nil
		}
		succ := func(b []byte) []byte {
			out := make([]byte, len(b))
			copy(out, b)
			for i := len(out) - 1; i >= 0; i-- {
				if out[i] != 0xFF {
					out[i]++
					return out[:i+1]
				}
			}
			return nil
		}
		switch a[0].Type() {
		case sqltypes.Blob:
			s := succ(a[0].Blob())
			if s == nil {
				return sqltypes.NullValue(), nil
			}
			return sqltypes.NewBlob(s), nil
		case sqltypes.Text:
			s := succ([]byte(a[0].Text()))
			if s == nil {
				return sqltypes.NullValue(), nil
			}
			return sqltypes.NewText(string(s)), nil
		}
		return sqltypes.Value{}, fmt.Errorf("PREFIX_SUCC of %s", a[0].Type())
	},
	"COALESCE": func(a []sqltypes.Value) (sqltypes.Value, error) {
		if len(a) == 0 {
			return sqltypes.Value{}, fmt.Errorf("COALESCE needs at least one argument")
		}
		for _, v := range a {
			if !v.IsNull() {
				return v, nil
			}
		}
		return sqltypes.NullValue(), nil
	},
}

func textFunc(name string, f func(string) string) scalarFunc {
	return func(a []sqltypes.Value) (sqltypes.Value, error) {
		if err := arity(name, a, 1); err != nil {
			return sqltypes.Value{}, err
		}
		if a[0].IsNull() {
			return sqltypes.NullValue(), nil
		}
		if a[0].Type() != sqltypes.Text {
			return sqltypes.Value{}, fmt.Errorf("%s of %s", name, a[0].Type())
		}
		return sqltypes.NewText(f(a[0].Text())), nil
	}
}

func arity(name string, a []sqltypes.Value, n int) error {
	if len(a) != n {
		return fmt.Errorf("%s takes %d argument(s), got %d", name, n, len(a))
	}
	return nil
}

// RegisterScalar adds a deterministic scalar function under name, for
// packages that own a value codec the engine does not (the parser and the
// evaluator then treat it as a built-in). Call it only from a package init:
// the table is read without a lock. It panics when name is not an upper-case
// identifier or is already a function or aggregate, so nothing can shadow a
// built-in.
func RegisterScalar(name string, fn func([]sqltypes.Value) (sqltypes.Value, error)) {
	if name == "" {
		panic("expr: RegisterScalar needs a name")
	}
	for i, r := range name {
		if !(r >= 'A' && r <= 'Z' || r == '_' || i > 0 && r >= '0' && r <= '9') {
			panic(fmt.Sprintf("expr: scalar function name %q is not an upper-case identifier", name))
		}
	}
	if _, err := NewAggState(name, false); IsScalarFunc(name) || err == nil {
		panic(fmt.Sprintf("expr: function %s is already defined", name))
	}
	scalarFuncs[name] = fn
}

// RegisterIncreasing registers fn as RegisterScalar does and marks it as a
// shift: whenever its argument delta is positive and its other arguments
// are fixed, fn is strictly increasing in its first argument and maps every
// value above itself, as `x + delta` does. An UPDATE whose only assignment
// is `c = fn(c, …)` with such a delta may then rewrite c's index entries in
// place, since every index holding c keeps its order (the executor still
// checks each statement's keys before it writes).
func RegisterIncreasing(name string, fn func([]sqltypes.Value) (sqltypes.Value, error), delta int) {
	if delta < 1 {
		panic(fmt.Sprintf("expr: %s: delta must be an argument after the first", name))
	}
	RegisterScalar(name, fn)
	increasingDelta[name] = delta
}

// increasingDelta maps each function registered with RegisterIncreasing to
// its delta argument.
var increasingDelta = map[string]int{}

// IncreasingDelta reports whether the named function was registered with
// RegisterIncreasing, and which argument is its delta.
func IncreasingDelta(name string) (int, bool) {
	d, ok := increasingDelta[name]
	return d, ok
}

// IsScalarFunc reports whether name (upper-case) is a known scalar function.
func IsScalarFunc(name string) bool {
	_, ok := scalarFuncs[name]
	return ok
}

// likeMatch implements SQL LIKE: % matches any run, _ matches one byte.
func likeMatch(s, pattern string) bool {
	// Iterative matcher with backtracking over the last %.
	si, pi := 0, 0
	star, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			starSi = si
			pi++
		case star >= 0:
			pi = star + 1
			starSi++
			si = starSi
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// LikePrefix decomposes a LIKE pattern into a literal prefix and whether the
// pattern is exactly `prefix%` (no other wildcards). Such patterns become
// index range scans.
func LikePrefix(pattern string) (prefix string, exact bool) {
	i := strings.IndexAny(pattern, "%_")
	if i < 0 {
		return pattern, false
	}
	return pattern[:i], i == len(pattern)-1 && pattern[i] == '%'
}
