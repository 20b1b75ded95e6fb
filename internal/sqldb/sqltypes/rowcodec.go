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
		switch v.typ {
		case Null:
			dst = append(dst, rowNull)
		case Int:
			dst = append(dst, rowInt)
			dst = binary.AppendVarint(dst, v.i)
		case Real:
			dst = append(dst, rowReal)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.i)) // IEEE bits
		case Text, Blob:
			tag := rowText
			if v.typ == Blob {
				tag = rowBlob
			}
			dst = append(dst, tag)
			dst = binary.AppendUvarint(dst, uint64(len(v.s)))
			dst = append(dst, v.s...)
		case Bool:
			dst = append(dst, rowBool)
			dst = append(dst, byte(v.i))
		default:
			panic(fmt.Sprintf("sqltypes: cannot row-encode %s", v.typ))
		}
	}
	return dst
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
