package sqltypes

import (
	"bytes"
	"testing"
)

// FuzzRowCodec feeds arbitrary bytes to DecodeRowInto. Decoding never
// panics; a row that decodes re-encodes to exactly the bytes it consumed
// (the encoding is canonical); and any two decoded values order the same
// under EncodeKey as under Compare wherever the key encoding promises it.
func FuzzRowCodec(f *testing.F) {
	f.Add(EncodeRow(nil, edgeValues))
	for _, v := range edgeValues {
		f.Add(EncodeRow(nil, Row{v}))
	}
	f.Add(EncodeRow(nil, Row{NullValue(), NewBlob(nil)}))
	f.Add(EncodeRow(nil, Row{NewInt(-1), NewText("x"), NewBool(true)}))
	f.Add([]byte{0x81, 0x00, rowNull}) // header in a longer form than needed

	f.Fuzz(func(t *testing.T, data []byte) {
		row, n, err := DecodeRowInto(nil, data)
		if err != nil {
			return
		}
		if re := EncodeRow(nil, row); !bytes.Equal(re, data[:n]) {
			t.Fatalf("decode/encode not canonical:\n in %x\nout %x", data[:n], re)
		}
		if len(row) > 16 {
			row = row[:16]
		}
		for _, a := range row {
			for _, b := range row {
				if !keyOrderHolds(a, b) {
					t.Fatalf("key order of %v (%s) and %v (%s) disagrees with Compare", a, a.Type(), b, b.Type())
				}
			}
		}
	})
}
