// Package sqltypes defines the value and type system shared by every layer of
// the relational engine: storage, indexing, expression evaluation and query
// results. Values are small immutable variants; the package also provides an
// order-preserving byte encoding used for index keys.
package sqltypes

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Type identifies a column or value type.
type Type uint8

// The supported SQL types.
const (
	Null Type = iota // the type of the NULL literal
	Int              // 64-bit signed integer
	Real             // 64-bit IEEE float
	Text             // UTF-8 string
	Blob             // raw bytes
	Bool             // boolean
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case Null:
		return "NULL"
	case Int:
		return "INT"
	case Real:
		return "REAL"
	case Text:
		return "TEXT"
	case Blob:
		return "BLOB"
	case Bool:
		return "BOOL"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ParseType maps a SQL type name to a Type. It accepts the common aliases so
// that dumps from other systems load without editing.
func ParseType(s string) (Type, error) {
	switch strings.ToUpper(s) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return Int, nil
	case "REAL", "FLOAT", "DOUBLE":
		return Real, nil
	case "TEXT", "VARCHAR", "CHAR", "STRING", "CLOB":
		return Text, nil
	case "BLOB", "BYTES", "BINARY", "VARBINARY":
		return Blob, nil
	case "BOOL", "BOOLEAN":
		return Bool, nil
	default:
		return Null, fmt.Errorf("unknown type %q", s)
	}
}

// Value is a single SQL value. The zero Value is NULL.
//
// A Value is 32 bytes: the tag, one word of scalar payload and one string
// header. Every row the executor copies, buffers and shreds is a slice of
// these, so the width is pinned by TestValueSize.
type Value struct {
	_   [0]func() // keeps Value non-comparable: compare with Compare, not ==
	typ Type
	i   int64  // Int, Bool (0/1), Real (IEEE bits)
	s   string // Text, and Blob bytes (see NewBlob)
}

// NewInt returns an Int value.
func NewInt(v int64) Value { return Value{typ: Int, i: v} }

// NewReal returns a Real value.
func NewReal(v float64) Value { return Value{typ: Real, i: int64(math.Float64bits(v))} }

// NewText returns a Text value.
func NewText(v string) Value { return Value{typ: Text, s: v} }

// NewBlob returns a Blob value that aliases v: the bytes are not copied, so
// the call never allocates. The caller hands the bytes over and must not
// write to them afterwards. Appending to a buffer v was cut from is fine:
// the value holds only v's first len(v) bytes.
func NewBlob(v []byte) Value {
	return Value{typ: Blob, s: unsafe.String(unsafe.SliceData(v), len(v))}
}

// NewBool returns a Bool value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{typ: Bool, i: i}
}

// NullValue returns the NULL value.
func NullValue() Value { return Value{} }

// Type reports the value's type.
func (v Value) Type() Type { return v.typ }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.typ == Null }

// Int returns the integer payload. It panics if the value is not Int or Bool.
func (v Value) Int() int64 {
	if v.typ != Int && v.typ != Bool {
		panic(fmt.Sprintf("sqltypes: Int() on %s value", v.typ))
	}
	return v.i
}

// Real returns the float payload. Int values are widened.
func (v Value) Real() float64 {
	switch v.typ {
	case Real:
		return math.Float64frombits(uint64(v.i))
	case Int, Bool:
		return float64(v.i)
	default:
		panic(fmt.Sprintf("sqltypes: Real() on %s value", v.typ))
	}
}

// Text returns the string payload. It panics if the value is not Text.
func (v Value) Text() string {
	if v.typ != Text {
		panic(fmt.Sprintf("sqltypes: Text() on %s value", v.typ))
	}
	return v.s
}

// Blob returns the bytes payload. It panics if the value is not Blob. The
// result aliases the value's bytes (no copy, no allocation), and those may
// be shared with other values or be read-only string data: callers must
// not write to it. Its capacity equals its length, so an append copies.
func (v Value) Blob() []byte {
	if v.typ != Blob {
		panic(fmt.Sprintf("sqltypes: Blob() on %s value", v.typ))
	}
	return unsafe.Slice(unsafe.StringData(v.s), len(v.s))
}

// Bool returns the boolean payload. It panics if the value is not Bool.
func (v Value) Bool() bool {
	if v.typ != Bool {
		panic(fmt.Sprintf("sqltypes: Bool() on %s value", v.typ))
	}
	return v.i != 0
}

// String renders the value for display and EXPLAIN output.
func (v Value) String() string {
	switch v.typ {
	case Null:
		return "NULL"
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Real:
		return strconv.FormatFloat(v.Real(), 'g', -1, 64)
	case Text:
		return v.s
	case Blob:
		return fmt.Sprintf("x'%x'", v.s)
	case Bool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

// SQLLiteral renders the value as a SQL literal (quoting text).
func (v Value) SQLLiteral() string {
	switch v.typ {
	case Text:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	default:
		return v.String()
	}
}

// numericRank orders types for cross-type numeric comparison.
func numeric(t Type) bool { return t == Int || t == Real || t == Bool }

// Compare orders two values. NULL sorts before everything; values of
// incomparable types order by type tag (a total order is required for
// sorting). Int/Real/Bool compare numerically.
func Compare(a, b Value) int {
	if a.typ == Null || b.typ == Null {
		switch {
		case a.typ == Null && b.typ == Null:
			return 0
		case a.typ == Null:
			return -1
		default:
			return 1
		}
	}
	if numeric(a.typ) && numeric(b.typ) {
		if a.typ == Real || b.typ == Real {
			af, bf := a.Real(), b.Real()
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			default:
				return 0
			}
		}
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		default:
			return 0
		}
	}
	if a.typ != b.typ {
		if a.typ < b.typ {
			return -1
		}
		return 1
	}
	switch a.typ {
	case Text, Blob:
		return strings.Compare(a.s, b.s)
	default:
		return 0
	}
}

// Equal reports whether two values compare equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Coerce converts v to type t when a lossless or conventional conversion
// exists (the conversions INSERT applies when a literal meets a column type).
func Coerce(v Value, t Type) (Value, error) {
	if v.typ == t || v.typ == Null {
		return v, nil
	}
	switch t {
	case Int:
		switch v.typ {
		case Real:
			if f := v.Real(); f == math.Trunc(f) && f >= math.MinInt64 && f <= math.MaxInt64 {
				return NewInt(int64(f)), nil
			}
		case Bool:
			return NewInt(v.i), nil
		case Text:
			if i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64); err == nil {
				return NewInt(i), nil
			}
		}
	case Real:
		switch v.typ {
		case Int, Bool:
			return NewReal(float64(v.i)), nil
		case Text:
			if f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64); err == nil {
				return NewReal(f), nil
			}
		}
	case Text:
		return NewText(v.String()), nil
	case Blob:
		if v.typ == Text {
			return Value{typ: Blob, s: v.s}, nil
		}
	case Bool:
		switch v.typ {
		case Int:
			return NewBool(v.i != 0), nil
		}
	}
	return Value{}, fmt.Errorf("cannot coerce %s value %s to %s", v.typ, v, t)
}

// valueOverhead is the in-memory size of the Value struct itself (tag,
// scalar word and string header), so the query memory accountant follows
// the layout.
const valueOverhead = int64(unsafe.Sizeof(Value{}))

// Memory estimates the value's in-memory footprint in bytes: the struct
// plus any out-of-line text or blob payload.
func (v Value) Memory() int64 {
	return valueOverhead + int64(len(v.s))
}

// Row is a tuple of values.
type Row []Value

// Memory estimates the row's in-memory footprint in bytes (slice header
// plus every value). Used to charge query memory budgets when a row is
// materialized into a hash table, sort buffer or result set.
func (r Row) Memory() int64 {
	n := int64(24)
	for _, v := range r {
		n += v.Memory()
	}
	return n
}

// Clone returns a deep-enough copy of the row (blob payloads are shared; the
// engine treats value payloads as immutable).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row for debugging.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
