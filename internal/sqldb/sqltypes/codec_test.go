package sqltypes

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
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
		got, used, err := decodeKeyTyped(key, types)
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
	vals := []float64{
		math.Inf(-1), -1e300, -1, -0.5, 0, math.SmallestNonzeroFloat64, 0.5, 1, 1e300, math.Inf(1),
	}
	var prev []byte
	for i, f := range vals {
		k := EncodeKey(nil, NewReal(f))
		if i > 0 && bytes.Compare(prev, k) >= 0 {
			t.Errorf("real order broken at %g", f)
		}
		got, _, err := decodeKeyTyped(k, []Type{Real})
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
	// A NaN has no place in Compare's order (it compares equal to every
	// number); its key sorts after +Inf.
	if knan := EncodeKey(nil, NewReal(math.NaN())); bytes.Compare(prev, knan) >= 0 {
		t.Error("NaN key must sort after +Inf")
	}
	// Real edge values keep their exact bits through the accessors; the
	// codecs are checked for every edge value in
	// TestRowCodecRoundTripProperty.
	for _, v := range edgeValues {
		if v.Type() != Real {
			continue
		}
		if got := NewReal(v.Real()); !sameValue(got, v) {
			t.Errorf("accessor round trip %v -> %v", v, got)
		}
		checkRepresentations(t, v)
	}
}

// edgeValues are the values whose bits or ordering a codec is most likely to
// lose: signed zero, infinities, a NaN, the smallest subnormal, an empty
// Blob (which must stay distinct from NULL), a Blob holding the escape bytes
// 0x00 and 0xFF, and a Text and a Blob with equal bytes (which order by type
// tag).
var edgeValues = []Value{
	NullValue(),
	NewBlob(nil),
	NewReal(math.Copysign(0, -1)),
	NewReal(0),
	NewReal(math.Inf(-1)),
	NewReal(math.Inf(1)),
	NewReal(math.NaN()),
	NewReal(math.SmallestNonzeroFloat64),
	NewReal(-math.SmallestNonzeroFloat64),
	NewBlob([]byte{0x00, 0xFF}),
	NewBlob([]byte{0xFF, 0x00}),
	NewText("ab"),
	NewBlob([]byte("ab")),
	NewText(""),
}

// sameValue reports whether a and b are the same value bit for bit (NaN
// payloads and the sign of zero included), not merely equal under Compare.
func sameValue(a, b Value) bool {
	return a.Type() == b.Type() && bytes.Equal(EncodeRow(nil, Row{a}), EncodeRow(nil, Row{b}))
}

// checkRepresentations sends v through the row codec and the key codec and
// fails unless each hands back the same value.
func checkRepresentations(t *testing.T, v Value) {
	t.Helper()
	got, n, err := DecodeRowInto(nil, EncodeRow(nil, Row{v}))
	if err != nil || len(got) != 1 || !sameValue(got[0], v) {
		t.Errorf("row codec round trip %v (%s) -> %v, %d bytes, %v", v, v.Type(), got, n, err)
	}
	key := EncodeKey(nil, v)
	kgot, used, err := decodeKeyTyped(key, []Type{v.Type()})
	if err != nil || used != len(key) || !sameValue(kgot[0], v) {
		t.Errorf("key codec round trip %v (%s) -> %v, %v", v, v.Type(), kgot, err)
	}
}

// keyOrderHolds reports whether EncodeKey orders a and b as Compare does,
// where the key encoding promises that: for values of one type (as within
// an index column), NULL against anything, and Text against Blob. NaN has
// no order under Compare, and -0.0 and +0.0 are equal under Compare while
// their keys keep the distinct bit patterns, so neither case is checked.
func keyOrderHolds(a, b Value) bool {
	text := func(v Value) bool { return v.Type() == Text || v.Type() == Blob }
	if a.Type() != b.Type() && !a.IsNull() && !b.IsNull() && !(text(a) && text(b)) {
		return true
	}
	want := Compare(a, b)
	if a.Type() == Real && b.Type() == Real {
		if math.IsNaN(a.Real()) || math.IsNaN(b.Real()) || want == 0 && a.Real() == 0 {
			return true
		}
	}
	return sign(bytes.Compare(EncodeKey(nil, a), EncodeKey(nil, b))) == want
}

func TestDecodeKeyErrors(t *testing.T) {
	if _, _, err := decodeKey([]byte{}, 1); err == nil {
		t.Error("empty key decoded")
	}
	if _, _, err := decodeKey([]byte{tagNum, 1, 2}, 1); err == nil {
		t.Error("truncated numeric decoded")
	}
	if _, _, err := decodeKey([]byte{tagText, 'a'}, 1); err == nil {
		t.Error("unterminated text decoded")
	}
	if _, _, err := decodeKey([]byte{tagText, 0x00, 0x02}, 1); err == nil {
		t.Error("bad escape decoded")
	}
	if _, _, err := decodeKey([]byte{0x77}, 1); err == nil {
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

// Property: row codec round-trips arbitrary rows, edge values among them,
// and the decoded values keep their order under Compare and the key codec.
func TestRowCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(n8 % 10)
		row := make(Row, n)
		for i := range row {
			if r.Intn(4) == 0 {
				row[i] = edgeValues[r.Intn(len(edgeValues))]
			} else {
				row[i] = randValue(r)
			}
		}
		data := EncodeRow(nil, row)
		got, used, err := DecodeRowInto(nil, data)
		if err != nil || used != len(data) || len(got) != len(row) {
			return false
		}
		for i := range row {
			if !sameValue(row[i], got[i]) {
				return false
			}
			for j := range row {
				if Compare(got[i], got[j]) != Compare(row[i], row[j]) || !keyOrderHolds(got[i], got[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
	// All edge values in one row, an empty Blob right beside NULL.
	data := EncodeRow(nil, edgeValues)
	got, err := DecodeRow(data)
	if err != nil || len(got) != len(edgeValues) {
		t.Fatalf("edge row: %v, %v", got, err)
	}
	if !got[0].IsNull() || got[1].Type() != Blob || Compare(got[0], got[1]) >= 0 {
		t.Errorf("NULL and empty Blob: %s %v, %s %v", got[0].Type(), got[0], got[1].Type(), got[1])
	}
	for i, v := range edgeValues {
		checkRepresentations(t, v)
		for j, w := range edgeValues {
			if c := Compare(got[i], got[j]); c != Compare(v, w) {
				t.Errorf("Compare(%v, %v) = %d after decoding, %d before", got[i], got[j], c, Compare(v, w))
			}
			if !keyOrderHolds(v, w) {
				t.Errorf("key order of %v (%s) and %v (%s) disagrees with Compare", v, v.Type(), w, w.Type())
			}
		}
	}
	if Compare(NewText("ab"), NewBlob([]byte("ab"))) >= 0 {
		t.Error("Text must order before a Blob with equal bytes")
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
		// Longer forms than EncodeRow writes: the encoding is canonical.
		{0x81, 0x00, rowNull},
		{1, rowInt, 0x80, 0x00},
		{1, rowText, 0x81, 0x00, 'a'},
		{1, rowBool, 2},
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

// decodeKey decodes n values from key, returning the values and the number of
// bytes consumed: the inverse of EncodeKey, which only tests need (index
// scans compare encoded keys and never decode them).
func decodeKey(key []byte, n int) ([]Value, int, error) {
	vals := make([]Value, 0, n)
	pos := 0
	for i := 0; i < n; i++ {
		if pos >= len(key) {
			return nil, 0, fmt.Errorf("key too short: want %d values, got %d", n, i)
		}
		tag := key[pos]
		pos++
		switch tag {
		case tagNull:
			vals = append(vals, NullValue())
		case tagNum:
			if pos+8 > len(key) {
				return nil, 0, fmt.Errorf("truncated numeric key")
			}
			u := binary.BigEndian.Uint64(key[pos : pos+8])
			pos += 8
			// Int and Real share a tag; keys round-trip as Int when the
			// stored column was Int. We cannot distinguish here, so numeric
			// keys decode as raw bits and callers that need exact values
			// decode through the column type with decodeKeyTyped.
			vals = append(vals, NewInt(int64(u^(1<<63))))
		case tagText:
			raw, used, err := decodeEscaped(key[pos:])
			if err != nil {
				return nil, 0, err
			}
			pos += used
			vals = append(vals, NewText(string(raw)))
		case tagBlob:
			raw, used, err := decodeEscaped(key[pos:])
			if err != nil {
				return nil, 0, err
			}
			pos += used
			vals = append(vals, NewBlob(raw))
		default:
			return nil, 0, fmt.Errorf("bad key tag 0x%02x", tag)
		}
	}
	return vals, pos, nil
}

// decodeKeyTyped decodes values of the given column types from key.
func decodeKeyTyped(key []byte, types []Type) ([]Value, int, error) {
	vals, pos, err := decodeKey(key, len(types))
	if err != nil {
		return nil, 0, err
	}
	for i, t := range types {
		if vals[i].IsNull() {
			continue
		}
		switch t {
		case Real:
			if vals[i].typ == Int {
				stored := uint64(vals[i].i) ^ (1 << 63) // raw stored bytes
				var bits uint64
				if stored&(1<<63) != 0 {
					bits = stored ^ (1 << 63) // was positive: sign bit had been set
				} else {
					bits = ^stored // was negative: all bits had been flipped
				}
				vals[i] = NewReal(math.Float64frombits(bits))
			}
		case Bool:
			if vals[i].typ == Int {
				vals[i] = NewBool(vals[i].i != 0)
			}
		}
	}
	return vals, pos, nil
}

func decodeEscaped(data []byte) (raw []byte, used int, err error) {
	out := make([]byte, 0, len(data))
	i := 0
	for i < len(data) {
		b := data[i]
		if b != 0x00 {
			out = append(out, b)
			i++
			continue
		}
		if i+1 >= len(data) {
			return nil, 0, fmt.Errorf("truncated escaped key")
		}
		switch data[i+1] {
		case 0x01:
			return out, i + 2, nil
		case 0xFF:
			out = append(out, 0x00)
			i += 2
		default:
			return nil, 0, fmt.Errorf("bad escape 0x00 0x%02x", data[i+1])
		}
	}
	return nil, 0, fmt.Errorf("unterminated escaped key")
}

// TestRowValueLen: RowValueLen is the length AppendRowValue writes, and
// RowValueSpan finds each value AppendRowValue wrote inside a row.
func TestRowValueLen(t *testing.T) {
	vals := []Value{NullValue(), NewBool(true), NewReal(-1.5), NewText(""), NewBlob([]byte{0, 0xFF})}
	for _, i := range []int64{0, 1, -1, 63, 64, -64, -65, 8191, 8192, 1 << 40, -1 << 63, 1<<63 - 1} {
		vals = append(vals, NewInt(i))
	}
	for _, n := range []int{1, 127, 128, 20000} {
		vals = append(vals, NewText(strings.Repeat("x", n)))
	}
	row := EncodeRow(nil, vals)
	for i, v := range vals {
		enc := AppendRowValue(nil, v)
		if got := RowValueLen(v); got != len(enc) {
			t.Errorf("RowValueLen(%v) = %d, encoding is %d bytes", v, got, len(enc))
		}
		from, to, err := RowValueSpan(row, i)
		if err != nil || !bytes.Equal(row[from:to], enc) {
			t.Errorf("RowValueSpan(row, %d) = %d, %d, %v", i, from, to, err)
		}
	}
	if _, _, err := RowValueSpan(row, len(vals)); err == nil {
		t.Error("RowValueSpan past the last value succeeded")
	}
}

// TestKeyFromRowValue: each value of a row, read with RowValueStarts, turns
// into the key EncodeKey writes for it, and KeyLen is that key's length.
func TestKeyFromRowValue(t *testing.T) {
	vals := []Value{NullValue(), NewBool(true), NewBool(false), NewReal(-1.5), NewReal(2), NewText(""),
		NewText("a\x00b\x00"), NewBlob([]byte{0, 0xFF, 0}), NewBlob(nil)}
	for _, i := range []int64{0, 1, -1, 63, 64, -64, -65, 8191, 8192, 1 << 40, -1 << 63, 1<<63 - 1} {
		vals = append(vals, NewInt(i))
	}
	for _, n := range []int{1, 127, 128, 20000} {
		vals = append(vals, NewText(strings.Repeat("x", n)))
	}
	row := EncodeRow(nil, vals)
	starts, err := RowValueStarts(nil, row)
	if err != nil || len(starts) != len(vals)+1 || starts[len(vals)] != len(row) {
		t.Fatalf("RowValueStarts = %v, %v", starts, err)
	}
	for i, v := range vals {
		want := EncodeKey(nil, v)
		if got := AppendKeyFromRowValue([]byte{7}, row[starts[i]:starts[i+1]]); !bytes.Equal(got[1:], want) || got[0] != 7 {
			t.Errorf("AppendKeyFromRowValue(%v) = %x, EncodeKey %x", v, got, want)
		}
		if got := KeyLen(v); got != len(want) {
			t.Errorf("KeyLen(%v) = %d, key is %d bytes", v, got, len(want))
		}
	}
	if _, err := RowValueStarts(nil, row[:len(row)-1]); err == nil {
		t.Error("RowValueStarts on a truncated row succeeded")
	}
}
