package sqltypes

import (
	"encoding/binary"
	"fmt"
)

// This file implements the storage encoding for heap rows: compact,
// length-prefixed, not order-preserving. Each value is a type byte followed
// by a payload; integers use varints. The encoding is canonical: the decoder
// accepts only what EncodeRow writes.

const (
	rowNull byte = 0
	rowInt  byte = 1
	rowReal byte = 2
	rowText byte = 3
	rowBlob byte = 4
	rowBool byte = 5
)

// EncodeRow appends the storage encoding of r to dst.
func EncodeRow(dst []byte, r Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = AppendRowValue(dst, v)
	}
	return dst
}

// AppendRowValue appends the storage encoding of one value, as EncodeRow
// writes it inside a row, to dst.
func AppendRowValue(dst []byte, v Value) []byte {
	switch v.typ {
	case Null:
		return append(dst, rowNull)
	case Int:
		dst = append(dst, rowInt)
		return binary.AppendVarint(dst, v.i)
	case Real:
		dst = append(dst, rowReal)
		return binary.LittleEndian.AppendUint64(dst, uint64(v.i)) // IEEE bits
	case Text, Blob:
		tag := rowText
		if v.typ == Blob {
			tag = rowBlob
		}
		dst = append(dst, tag)
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		return append(dst, v.s...)
	case Bool:
		return append(dst, rowBool, byte(v.i))
	default:
		panic(fmt.Sprintf("sqltypes: cannot row-encode %s", v.typ))
	}
}

// RowValueLen returns the length of v's AppendRowValue encoding.
func RowValueLen(v Value) int {
	switch v.typ {
	case Int:
		u := uint64(v.i<<1) ^ uint64(v.i>>63) // zigzag, as binary.AppendVarint
		n := 2
		for u >= 0x80 {
			u >>= 7
			n++
		}
		return n
	case Real:
		return 9
	case Text, Blob:
		l, n := uint64(len(v.s)), 2
		for l >= 0x80 {
			l >>= 7
			n++
		}
		return n + len(v.s)
	case Bool:
		return 2
	}
	return 1
}

// RowValueSpan returns where value col of the encoded row data lies: the
// bytes data[start:end] are its AppendRowValue encoding. Replacing them with
// another value's encoding gives the row with that value in col.
func RowValueSpan(data []byte, col int) (start, end int, err error) {
	n, used := binary.Uvarint(data)
	if !shortVarint(data, used) || uint64(col) >= n {
		return 0, 0, fmt.Errorf("row has no value %d", col)
	}
	pos := used
	for i := 0; ; i++ {
		end, err := rowValueEnd(data, pos, i, n)
		if err != nil {
			return 0, 0, err
		}
		if i == col {
			return pos, end, nil
		}
		pos = end
	}
}

// RowValueStarts appends to dst where each value of the encoded row data
// starts, then where the last one ends: value i is data[s[i]:s[i+1]] of the
// result s, as RowValueSpan delimits it.
func RowValueStarts(dst []int, data []byte) ([]int, error) {
	n, used := binary.Uvarint(data)
	if !shortVarint(data, used) {
		return nil, fmt.Errorf("bad row header")
	}
	pos := used
	for i := 0; uint64(i) < n; i++ {
		dst = append(dst, pos)
		end, err := rowValueEnd(data, pos, i, n)
		if err != nil {
			return nil, err
		}
		pos = end
	}
	return append(dst, pos), nil
}

// rowValueEnd returns where value i of n, which starts at data[pos], ends.
func rowValueEnd(data []byte, pos, i int, n uint64) (int, error) {
	if pos >= len(data) {
		return 0, fmt.Errorf("truncated row: value %d of %d", i, n)
	}
	start := pos
	pos++
	switch data[start] {
	case rowNull:
	case rowInt:
		// A varint ends at its first byte below 0x80, within ten bytes;
		// the tenth may hold only the top bit.
		k := pos
		for k < len(data) && k-pos < 9 && data[k] >= 0x80 {
			k++
		}
		if k == len(data) || data[k] >= 0x80 || k-pos == 9 && data[k] > 1 {
			return 0, fmt.Errorf("bad int at value %d", i)
		}
		pos = k + 1
	case rowReal:
		pos += 8
	case rowText, rowBlob:
		l, used := binary.Uvarint(data[pos:])
		if used <= 0 || l > uint64(len(data)-pos-used) {
			return 0, fmt.Errorf("bad string at value %d", i)
		}
		pos += used + int(l)
	case rowBool:
		pos++
	default:
		return 0, fmt.Errorf("bad row tag 0x%02x at value %d", data[start], i)
	}
	if pos > len(data) {
		return 0, fmt.Errorf("truncated row: value %d of %d", i, n)
	}
	return pos, nil
}

// DecodeRow decodes a row previously produced by EncodeRow. Text and Blob
// payloads are copied out of data, so the result does not alias the input.
func DecodeRow(data []byte) (Row, error) {
	row, _, err := DecodeRowInto(nil, data)
	return row, err
}

// DecodeRowInto decodes the row at the front of data like DecodeRow, but
// appends its values to dst (allocating only when dst's capacity is short)
// and reports how many bytes the row occupied, so a scan loop can decode
// every row into one buffer and a caller can walk rows encoded back to back —
// the form a relation parameter (`FROM ? alias (col, ...)`) is bound in.
func DecodeRowInto(dst Row, data []byte) (Row, int, error) {
	return decodeRow(dst, data, nil)
}

// DecodeColumnsInto is DecodeRowInto for a caller that reads only some
// columns: value i is decoded when want[i] is set and is NULL otherwise, so
// a skipped TEXT or BLOB costs no copy. The row is validated in full.
func DecodeColumnsInto(dst Row, data []byte, want []bool) (Row, error) {
	row, _, err := decodeRow(dst, data, want)
	return row, err
}

// decodeRow decodes the row at the front of data into dst, the values
// want leaves unset as NULL; a nil want decodes every value.
func decodeRow(dst Row, data []byte, want []bool) (Row, int, error) {
	n, used := binary.Uvarint(data)
	if !shortVarint(data, used) {
		return nil, 0, fmt.Errorf("bad row header")
	}
	pos := used
	// Every value takes at least its tag byte: a larger count is a corrupt
	// header, not a reason to allocate.
	if n > uint64(len(data)-pos) {
		return nil, 0, fmt.Errorf("truncated row: %d values in %d bytes", n, len(data)-pos)
	}
	row := dst
	if need := len(dst) + int(n); cap(dst) < need {
		row = make(Row, len(dst), need)
		copy(row, dst)
	}
	for i := uint64(0); i < n; i++ {
		if pos >= len(data) {
			return nil, 0, fmt.Errorf("truncated row: value %d of %d", i, n)
		}
		tag := data[pos]
		pos++
		switch tag {
		case rowNull:
			row = append(row, NullValue())
		case rowInt:
			v, used := binary.Varint(data[pos:])
			if !shortVarint(data[pos:], used) {
				return nil, 0, fmt.Errorf("bad int at value %d", i)
			}
			pos += used
			row = append(row, NewInt(v))
		case rowReal:
			if pos+8 > len(data) {
				return nil, 0, fmt.Errorf("truncated real at value %d", i)
			}
			row = append(row, Value{typ: Real, i: int64(binary.LittleEndian.Uint64(data[pos : pos+8]))})
			pos += 8
		case rowText, rowBlob:
			typ := Text
			if tag == rowBlob {
				typ = Blob
			}
			l, used := binary.Uvarint(data[pos:])
			if !shortVarint(data[pos:], used) || l > uint64(len(data)-pos-used) {
				return nil, 0, fmt.Errorf("bad %s at value %d", typ, i)
			}
			pos += used
			if want != nil && (i >= uint64(len(want)) || !want[i]) {
				row = append(row, NullValue())
				pos += int(l)
				break
			}
			// One string copy for either type: the value never aliases
			// data, which is often a page the pool will reuse.
			row = append(row, Value{typ: typ, s: string(data[pos : pos+int(l)])})
			pos += int(l)
		case rowBool:
			if pos >= len(data) || data[pos] > 1 {
				return nil, 0, fmt.Errorf("bad bool at value %d", i)
			}
			row = append(row, NewBool(data[pos] != 0))
			pos++
		default:
			return nil, 0, fmt.Errorf("bad row tag 0x%02x at value %d", tag, i)
		}
	}
	return row, pos, nil
}

// shortVarint reports whether a varint that binary.Uvarint or
// binary.Varint read from the front of b in used bytes decoded, and in its
// shortest form: a longer form ends in a zero byte. Only the shortest form,
// the one EncodeRow writes, is accepted, so every row has exactly one
// encoding (FuzzRowCodec checks that decoding and re-encoding agree).
func shortVarint(b []byte, used int) bool {
	return used == 1 || used > 1 && b[used-1] != 0
}
