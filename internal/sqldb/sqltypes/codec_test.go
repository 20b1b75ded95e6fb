package sqltypes

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randValue draws a random value covering every type, with adversarial
// content for strings/blobs (embedded zero bytes, shared prefixes).
func randValue(r *rand.Rand) Value {
	switch r.Intn(6) {
	case 0:
		return NullValue()
	case 1:
		return NewInt(r.Int63() - r.Int63())
	case 2:
		f := math.Float64frombits(r.Uint64())
		for math.IsNaN(f) {
			f = math.Float64frombits(r.Uint64())
		}
		return NewReal(f)
	case 3:
		return NewText(randBytesString(r))
	case 4:
		return NewBlob([]byte(randBytesString(r)))
	default:
		return NewBool(r.Intn(2) == 0)
	}
}

func randBytesString(r *rand.Rand) string {
	n := r.Intn(8)
	b := make([]byte, n)
	for i := range b {
		// Bias toward 0x00, 0xFF and 'a' to stress escaping and prefixes.
		switch r.Intn(4) {
		case 0:
			b[i] = 0x00
		case 1:
			b[i] = 0xFF
		case 2:
			b[i] = 'a'
		default:
			b[i] = byte(r.Intn(256))
		}
	}
	return string(b)
}

// sameTypeRandRow draws rows whose i-th values share a type, as within an
// index column.
func randTypedRows(r *rand.Rand, width int) (Row, Row, []Type) {
	types := make([]Type, width)
	a := make(Row, width)
	b := make(Row, width)
	for i := range types {
		types[i] = Type(1 + r.Intn(5)) // Int..Bool
		gen := func() Value {
			if r.Intn(8) == 0 {
				return NullValue()
			}
			switch types[i] {
			case Int:
				return NewInt(int64(r.Intn(64) - 32))
			case Real:
				return NewReal(float64(r.Intn(64)-32) / 4)
			case Text:
				return NewText(randBytesString(r))
			case Blob:
				return NewBlob([]byte(randBytesString(r)))
			default:
				return NewBool(r.Intn(2) == 0)
			}
		}
		a[i], b[i] = gen(), gen()
	}
	return a, b, types
}

func compareRows(a, b Row) int {
	for i := range a {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// Property: key encoding preserves row order.
func TestKeyEncodingOrderProperty(t *testing.T) {
	f := func(seed int64, width8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		width := 1 + int(width8%4)
		a, b, _ := randTypedRows(r, width)
		ka := EncodeKey(nil, a...)
		kb := EncodeKey(nil, b...)
		return sign(bytes.Compare(ka, kb)) == sign(compareRows(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

// Property: typed key decode round-trips.
func TestKeyRoundTripProperty(t *testing.T) {
	f := func(seed int64, width8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		width := 1 + int(width8%4)
		a, _, types := randTypedRows(r, width)
		key := EncodeKey(nil, a...)
		got, used, err := DecodeKeyTyped(key, types)
		if err != nil || used != len(key) {
			return false
		}
		for i := range a {
			if Compare(got[i], a[i]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestKeyCompositePrefix(t *testing.T) {
	// A composite key must sort by first column, then second.
	k1 := EncodeKey(nil, NewText("ab"), NewInt(9))
	k2 := EncodeKey(nil, NewText("ab"), NewInt(10))
	k3 := EncodeKey(nil, NewText("b"), NewInt(0))
	if !(bytes.Compare(k1, k2) < 0 && bytes.Compare(k2, k3) < 0) {
		t.Errorf("composite order broken: %x %x %x", k1, k2, k3)
	}
	// Prefix of a composite key is a byte prefix.
	p := EncodeKey(nil, NewText("ab"))
	if !bytes.HasPrefix(k1, p) {
		t.Error("column prefix is not a byte prefix")
	}
}

func TestKeyRealEdgeCases(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -1, -0.5, 0, 0.5, 1, 1e300, math.Inf(1)}
	var prev []byte
	for i, f := range vals {
		k := EncodeKey(nil, NewReal(f))
		if i > 0 && bytes.Compare(prev, k) >= 0 {
			t.Errorf("real order broken at %g", f)
		}
		got, _, err := DecodeKeyTyped(k, []Type{Real})
		if err != nil || got[0].Real() != f {
			t.Errorf("real round trip %g -> %v, %v", f, got, err)
		}
		prev = k
	}
	// -0.0 and +0.0 must compare equal numerically.
	kneg := EncodeKey(nil, NewReal(math.Copysign(0, -1)))
	kpos := EncodeKey(nil, NewReal(0))
	if bytes.Compare(kneg, kpos) >= 0 {
		t.Error("-0.0 must sort before +0.0 in byte form (distinct bit patterns)")
	}
}

func TestDecodeKeyErrors(t *testing.T) {
	if _, _, err := DecodeKey([]byte{}, 1); err == nil {
		t.Error("empty key decoded")
	}
	if _, _, err := DecodeKey([]byte{tagNum, 1, 2}, 1); err == nil {
		t.Error("truncated numeric decoded")
	}
	if _, _, err := DecodeKey([]byte{tagText, 'a'}, 1); err == nil {
		t.Error("unterminated text decoded")
	}
	if _, _, err := DecodeKey([]byte{tagText, 0x00, 0x02}, 1); err == nil {
		t.Error("bad escape decoded")
	}
	if _, _, err := DecodeKey([]byte{0x77}, 1); err == nil {
		t.Error("bad tag decoded")
	}
}

func TestPrefixSuccessor(t *testing.T) {
	cases := []struct {
		in   []byte
		want []byte
	}{
		{[]byte{1, 2, 3}, []byte{1, 2, 4}},
		{[]byte{1, 0xFF}, []byte{2}},
		{[]byte{0xFF, 0xFF}, nil},
		{[]byte{}, nil},
	}
	for _, c := range cases {
		got := AppendPrefixSuccessor(nil, c.in)
		if !bytes.Equal(got, c.want) {
			t.Errorf("AppendPrefixSuccessor(nil, %x) = %x, want %x", c.in, got, c.want)
		}
		// In place: the successor overwrites its own input buffer.
		in := bytes.Clone(c.in)
		if got := AppendPrefixSuccessor(in[:0], in); !bytes.Equal(got, c.want) {
			t.Errorf("AppendPrefixSuccessor(p[:0], %x) = %x, want %x", c.in, got, c.want)
		}
	}
	// Successor must bound exactly the prefix range.
	p := []byte{5, 0xFF}
	s := AppendPrefixSuccessor(nil, p)
	inRange := [][]byte{{5, 0xFF}, {5, 0xFF, 0}, {5, 0xFF, 0xFF, 0xFF}}
	for _, k := range inRange {
		if !(bytes.Compare(k, p) >= 0 && bytes.Compare(k, s) < 0) {
			t.Errorf("key %x not in [%x, %x)", k, p, s)
		}
	}
	if bytes.Compare([]byte{6, 0}, s) < 0 {
		t.Errorf("key outside prefix fell inside range")
	}
}

// Property: row codec round-trips arbitrary rows.
func TestRowCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(n8 % 10)
		row := make(Row, n)
		for i := range row {
			row[i] = randValue(r)
		}
		data := EncodeRow(nil, row)
		got, err := DecodeRow(data)
		if err != nil || len(got) != len(row) {
			return false
		}
		for i := range row {
			if row[i].Type() != got[i].Type() || Compare(row[i], got[i]) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRowErrors(t *testing.T) {
	bad := [][]byte{
		{},                 // no header
		{2, rowInt},        // missing payload
		{1, rowReal, 1, 2}, // truncated real
		{1, rowText, 5, 'a'},
		{1, rowBlob, 200},
		{1, rowBool},
		{1, 0x63},
		{0xff, 0xff, 0xff, 0xff, 0x0f, rowNull}, // count far beyond the data
	}
	for _, d := range bad {
		if _, err := DecodeRow(d); err == nil {
			t.Errorf("DecodeRow(%x) succeeded, want error", d)
		}
		if _, _, err := DecodeRowInto(make(Row, 0, 4), d); err == nil {
			t.Errorf("DecodeRowInto(%x) succeeded, want error", d)
		}
	}
}

// DecodeRowInto appends to the buffer it is given, reuses its backing array
// when that is large enough, and reports each row's length so rows encoded
// back to back can be walked.
func TestDecodeRowIntoReusesBuffer(t *testing.T) {
	a := Row{NewInt(1), NewText("x"), NullValue()}
	b := Row{NewInt(2), NewBlob([]byte{9}), NewBool(true)}
	data := EncodeRow(EncodeRow(nil, a), b)

	buf := make(Row, 1, 8)
	buf[0] = NewInt(-1) // a prefix the caller keeps, like a join's left row
	got, n, err := DecodeRowInto(buf, data)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[0] {
		t.Error("a large enough buffer was not reused")
	}
	if want := append(Row{NewInt(-1)}, a...); !reflect.DeepEqual(got, want) {
		t.Errorf("first row = %v, want %v", got, want)
	}
	got, m, err := DecodeRowInto(buf[:1], data[n:])
	if err != nil || n+m != len(data) {
		t.Fatalf("second row: %v, consumed %d+%d of %d bytes", err, n, m, len(data))
	}
	if want := append(Row{NewInt(-1)}, b...); !reflect.DeepEqual(got, want) {
		t.Errorf("second row = %v, want %v", got, want)
	}
	// A buffer that is too small is replaced, its prefix kept.
	got, _, err = DecodeRowInto(make(Row, 1, 2), data)
	if err != nil || len(got) != 4 || !got[0].IsNull() {
		t.Errorf("grown row = %v, %v", got, err)
	}
}

func TestDecodeRowNoAlias(t *testing.T) {
	row := Row{NewBlob([]byte{1, 2, 3})}
	data := EncodeRow(nil, row)
	got, err := DecodeRow(data)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] = 99 // mutate buffer
	if !reflect.DeepEqual(got[0].Blob(), []byte{1, 2, 3}) {
		t.Error("decoded blob aliases the input buffer")
	}
}
