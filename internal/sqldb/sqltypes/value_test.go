package sqltypes

import (
	"math"
	"reflect"
	"testing"
	"unsafe"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		Null: "NULL", Int: "INT", Real: "REAL", Text: "TEXT", Blob: "BLOB", Bool: "BOOL",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", typ, got, want)
		}
	}
}

func TestParseType(t *testing.T) {
	cases := map[string]Type{
		"int": Int, "INTEGER": Int, "BIGINT": Int,
		"real": Real, "DOUBLE": Real,
		"text": Text, "VARCHAR": Text,
		"blob": Blob, "BOOL": Bool,
	}
	for in, want := range cases {
		got, err := ParseType(in)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseType("FROB"); err == nil {
		t.Error("ParseType(FROB) succeeded, want error")
	}
}

func TestValueAccessors(t *testing.T) {
	if got := NewInt(42).Int(); got != 42 {
		t.Errorf("Int() = %d", got)
	}
	if got := NewReal(2.5).Real(); got != 2.5 {
		t.Errorf("Real() = %g", got)
	}
	if got := NewInt(3).Real(); got != 3 {
		t.Errorf("Int widened Real() = %g", got)
	}
	if got := NewText("hi").Text(); got != "hi" {
		t.Errorf("Text() = %q", got)
	}
	if got := NewBlob([]byte{1, 2}).Blob(); len(got) != 2 {
		t.Errorf("Blob() = %v", got)
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("Bool() roundtrip failed")
	}
	if !NullValue().IsNull() || NewInt(0).IsNull() {
		t.Error("IsNull misreports")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Int on Text", func() { NewText("x").Int() })
	mustPanic("Text on Int", func() { NewInt(1).Text() })
	mustPanic("Blob on Text", func() { NewText("x").Blob() })
	mustPanic("Bool on Int", func() { NewInt(1).Bool() })
	mustPanic("Real on Text", func() { NewText("x").Real() })
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewReal(1.5), NewInt(2), -1},
		{NewInt(2), NewReal(1.5), 1},
		{NewReal(2), NewInt(2), 0},
		{NullValue(), NewInt(-100), -1},
		{NewInt(-100), NullValue(), 1},
		{NullValue(), NullValue(), 0},
		{NewText("abc"), NewText("abd"), -1},
		{NewText("abc"), NewText("abc"), 0},
		{NewBlob([]byte{1}), NewBlob([]byte{1, 0}), -1},
		{NewBool(false), NewBool(true), -1},
		{NewBool(true), NewInt(1), 0}, // bool compares numerically
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCoerce(t *testing.T) {
	ok := []struct {
		in   Value
		t    Type
		want Value
	}{
		{NewText("42"), Int, NewInt(42)},
		{NewText(" 42 "), Int, NewInt(42)},
		{NewReal(3), Int, NewInt(3)},
		{NewInt(3), Real, NewReal(3)},
		{NewText("2.5"), Real, NewReal(2.5)},
		{NewInt(7), Text, NewText("7")},
		{NewText("ab"), Blob, NewBlob([]byte("ab"))},
		{NewInt(0), Bool, NewBool(false)},
		{NewInt(5), Bool, NewBool(true)},
		{NullValue(), Int, NullValue()},
	}
	for _, c := range ok {
		got, err := Coerce(c.in, c.t)
		if err != nil {
			t.Errorf("Coerce(%v, %v): %v", c.in, c.t, err)
			continue
		}
		if !Equal(got, c.want) || got.Type() != c.want.Type() {
			t.Errorf("Coerce(%v, %v) = %v (%v), want %v", c.in, c.t, got, got.Type(), c.want)
		}
	}
	bad := []struct {
		in Value
		t  Type
	}{
		{NewText("xyz"), Int},
		{NewReal(2.5), Int},
		{NewReal(math.Inf(1)), Int},
		{NewText("x"), Bool},
	}
	for _, c := range bad {
		if _, err := Coerce(c.in, c.t); err == nil {
			t.Errorf("Coerce(%v, %v) succeeded, want error", c.in, c.t)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NullValue(), "NULL"},
		{NewInt(-5), "-5"},
		{NewReal(2.5), "2.5"},
		{NewText("hi"), "hi"},
		{NewBool(true), "TRUE"},
		{NewBool(false), "FALSE"},
		{NewBlob([]byte{0xab}), "x'ab'"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.Type(), got, c.want)
		}
	}
	if got := NewText("o'brien").SQLLiteral(); got != "'o''brien'" {
		t.Errorf("SQLLiteral = %q", got)
	}
}

func TestRowCloneAndString(t *testing.T) {
	r := Row{NewInt(1), NewText("x")}
	c := r.Clone()
	c[0] = NewInt(9)
	if r[0].Int() != 1 {
		t.Error("Clone aliased the original")
	}
	if got := r.String(); got != "(1, x)" {
		t.Errorf("Row.String() = %q", got)
	}
}

// TestValueSize pins the 32-byte layout: rows of Values are what every join,
// sort and shred copies and buffers, so a field that widens Value widens all
// of them. Value stays non-comparable, so == cannot stand in for Compare
// (which orders Int against Real and equates -0.0 with +0.0), and Blob and
// Real round trips stay allocation-free.
func TestValueSize(t *testing.T) {
	if size := unsafe.Sizeof(Value{}); size != 32 {
		t.Fatalf("Value is %d bytes, want 32", size)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value is comparable; == must stay a compile error")
	}
	b := []byte{1, 2, 3}
	var sink int
	if n := testing.AllocsPerRun(100, func() { sink += len(NewBlob(b).Blob()) }); n != 0 {
		t.Errorf("NewBlob+Blob: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink += int(NewReal(2.5).Real()) }); n != 0 {
		t.Errorf("NewReal+Real: %v allocations, want 0", n)
	}
	_ = sink
}

// TestBlobAliases checks both directions of NewBlob's no-copy contract: the
// value reads the caller's bytes, and Blob hands back the same bytes with
// capacity cut to length, so an append never writes into the value.
func TestBlobAliases(t *testing.T) {
	b := []byte{1, 2, 3}
	got := NewBlob(b).Blob()
	if &got[0] != &b[0] {
		t.Error("NewBlob copied its slice")
	}
	if cap(got) != len(got) {
		t.Errorf("Blob() cap %d, want %d", cap(got), len(got))
	}
	if got := NewBlob(nil).Blob(); len(got) != 0 {
		t.Errorf("empty Blob() = %v", got)
	}
}

// TestRowMemory checks the memory accountant's charge for a shredded node
// row (doc, id, parent, kind, tag, value, order key): the slice header plus
// one Value per column plus the text and blob payload bytes.
func TestRowMemory(t *testing.T) {
	row := Row{
		NewInt(1), NewInt(42), NewInt(7),
		NewText("element"), NewText("item"), NullValue(), NewBlob([]byte{1, 3, 2}),
	}
	want := int64(24 + 7*32 + len("element") + len("item") + 3)
	if got := row.Memory(); got != want {
		t.Errorf("Row.Memory() = %d, want %d", got, want)
	}
}
