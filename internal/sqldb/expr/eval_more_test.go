package expr

import (
	"testing"

	"ordxml/internal/sqldb/sqltypes"
)

// Additional evaluator branch coverage: logical type errors, PREFIX_SUCC,
// function arity, clone independence.

func TestLogicalTypeErrors(t *testing.T) {
	bad := []Expr{
		&Binary{OpAnd, i(1), b(true)},
		&Binary{OpOr, b(false), i(1)},
		&Binary{OpAnd, b(true), i(1)}, // right side checked after short-circuit fails
		&Unary{OpNot, i(3)},
		&Unary{OpNeg, s("x")},
		&Binary{OpLike, i(1), s("%")},
		&Binary{OpLike, s("x"), i(1)},
		&Binary{OpMod, lit(sqltypes.NewReal(1.5)), i(2)},
	}
	for _, e := range bad {
		if _, err := Eval(e, &Env{}); err == nil {
			t.Errorf("%s evaluated without error", e)
		}
	}
	// AND short-circuits before seeing a bad right side.
	ok := &Binary{OpAnd, b(false), i(1)}
	v, err := Eval(ok, &Env{})
	if err != nil || v.Bool() {
		t.Errorf("short circuit: %v, %v", v, err)
	}
}

func TestPrefixSuccFunction(t *testing.T) {
	succ := func(arg sqltypes.Value) sqltypes.Value {
		v, err := Eval(&Call{Name: "PREFIX_SUCC", Args: []Expr{lit(arg)}}, &Env{})
		if err != nil {
			t.Fatalf("PREFIX_SUCC(%v): %v", arg, err)
		}
		return v
	}
	if got := succ(sqltypes.NewBlob([]byte{1, 2})); string(got.Blob()) != string([]byte{1, 3}) {
		t.Errorf("blob succ = %x", got.Blob())
	}
	if got := succ(sqltypes.NewBlob([]byte{1, 0xFF})); string(got.Blob()) != string([]byte{2}) {
		t.Errorf("blob succ with 0xFF = %x", got.Blob())
	}
	if got := succ(sqltypes.NewBlob([]byte{0xFF})); !got.IsNull() {
		t.Errorf("all-0xFF succ = %v", got)
	}
	if got := succ(sqltypes.NewText("ab")); got.Text() != "ac" {
		t.Errorf("text succ = %q", got.Text())
	}
	if got := succ(sqltypes.NullValue()); !got.IsNull() {
		t.Errorf("NULL succ = %v", got)
	}
	if _, err := Eval(&Call{Name: "PREFIX_SUCC", Args: []Expr{i(1)}}, &Env{}); err == nil {
		t.Error("PREFIX_SUCC of INT accepted")
	}
	if _, err := Eval(&Call{Name: "PREFIX_SUCC", Args: []Expr{s("a"), s("b")}}, &Env{}); err == nil {
		t.Error("PREFIX_SUCC arity not enforced")
	}
}

func TestFunctionArityAndTypes(t *testing.T) {
	bad := []Expr{
		&Call{Name: "LENGTH", Args: []Expr{s("a"), s("b")}},
		&Call{Name: "LENGTH", Args: []Expr{i(1)}},
		&Call{Name: "UPPER", Args: []Expr{i(1)}},
		&Call{Name: "ABS", Args: []Expr{s("x")}},
		&Call{Name: "SUBSTR", Args: []Expr{s("x")}},
		&Call{Name: "SUBSTR", Args: []Expr{s("x"), s("y")}},
		&Call{Name: "SUBSTR", Args: []Expr{s("x"), i(1), s("z")}},
		&Call{Name: "COALESCE", Args: nil},
	}
	for _, e := range bad {
		if _, err := Eval(e, &Env{}); err == nil {
			t.Errorf("%s evaluated without error", e)
		}
	}
	// ABS of real; LENGTH of blob.
	v, err := Eval(&Call{Name: "ABS", Args: []Expr{lit(sqltypes.NewReal(-2.5))}}, &Env{})
	if err != nil || v.Real() != 2.5 {
		t.Errorf("ABS(-2.5) = %v, %v", v, err)
	}
	v, err = Eval(&Call{Name: "LENGTH", Args: []Expr{lit(sqltypes.NewBlob([]byte{1, 2, 3}))}}, &Env{})
	if err != nil || v.Int() != 3 {
		t.Errorf("LENGTH(blob) = %v, %v", v, err)
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := &Binary{OpAnd,
		&Between{X: &ColRef{Column: "a", Idx: 1}, Lo: i(1), Hi: i(2)},
		&In{X: &ColRef{Column: "b", Idx: 2}, List: []Expr{s("x")}, Not: true},
	}
	c := Clone(orig).(*Binary)
	c.L.(*Between).X.(*ColRef).Idx = 99
	c.R.(*In).List[0] = s("changed")
	if orig.L.(*Between).X.(*ColRef).Idx != 1 {
		t.Error("clone aliased ColRef")
	}
	if orig.R.(*In).List[0].(*Literal).Val.Text() != "x" {
		t.Error("clone aliased In list")
	}
	// Clone of every node type.
	all := []Expr{
		&Literal{Val: sqltypes.NewInt(1)},
		&Param{Index: 2},
		&Unary{Op: OpNot, X: b(true)},
		&IsNull{X: i(1), Not: true},
		&Call{Name: "LENGTH", Args: []Expr{s("q")}},
		&Aggregate{Name: "SUM", Arg: &ColRef{Column: "x"}},
		&Aggregate{Name: "COUNT", Star: true},
	}
	for _, e := range all {
		if got := Clone(e).String(); got != e.String() {
			t.Errorf("Clone(%s) = %s", e, got)
		}
	}
	if Clone(nil) != nil {
		t.Error("Clone(nil) != nil")
	}
}

func TestBoolCoercionInComparison(t *testing.T) {
	// BOOL compares numerically with INT (engine convention).
	v, err := Eval(&Binary{OpLt, b(false), i(1)}, &Env{})
	if err != nil || !v.Bool() {
		t.Errorf("FALSE < 1 = %v, %v", v, err)
	}
}

func TestConcatCoercesBlobFails(t *testing.T) {
	_, err := Eval(&Binary{OpConcat, lit(sqltypes.NewBlob([]byte{1})), s("x")}, &Env{})
	if err != nil {
		// Blob-to-text is a defined coercion; concat should succeed.
		t.Errorf("blob || text: %v", err)
	}
}

// A function registered at init is a built-in to the evaluator and to the
// parser's IsScalarFunc check.
func init() {
	RegisterScalar("TWICE_2", func(a []sqltypes.Value) (sqltypes.Value, error) {
		if err := arity("TWICE_2", a, 1); err != nil {
			return sqltypes.Value{}, err
		}
		return sqltypes.NewInt(2 * a[0].Int()), nil
	})
}

func TestRegisterScalar(t *testing.T) {
	if !IsScalarFunc("TWICE_2") {
		t.Fatal("registered function is not a scalar function")
	}
	if got := evalOK(t, &Call{Name: "TWICE_2", Args: []Expr{i(21)}}); got.Int() != 42 {
		t.Errorf("TWICE_2(21) = %v", got)
	}
	if _, err := Eval(&Call{Name: "TWICE_2", Args: nil}, &Env{}); err == nil {
		t.Error("registered function's own arity check did not run")
	}
	fn := func([]sqltypes.Value) (sqltypes.Value, error) { return sqltypes.NullValue(), nil }
	for _, name := range []string{"TWICE_2", "LENGTH", "COALESCE", "MAX", "COUNT", "lower", "Mixed", "", "2X", "A-B"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RegisterScalar(%q) did not panic", name)
				}
			}()
			RegisterScalar(name, fn)
		}()
	}
	if got := evalOK(t, &Call{Name: "LENGTH", Args: []Expr{s("abc")}}); got.Int() != 3 {
		t.Errorf("LENGTH was shadowed: %v", got)
	}
}
