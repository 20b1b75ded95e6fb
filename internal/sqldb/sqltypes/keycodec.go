package sqltypes

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
)

// This file implements the order-preserving byte encoding for index keys.
// EncodeKey(a) < EncodeKey(b) lexicographically iff Row a < Row b under
// column-wise Compare. The encoding is also self-delimiting, so composite
// keys are simple concatenations and prefix scans over a key prefix work.
//
// Layout per value: a one-byte type tag (chosen so NULL < numbers < text <
// blob < bool matches Compare's cross-type order for same-type columns;
// within an index all entries of a column have one type, so only the
// NULL-vs-non-NULL distinction matters in practice), followed by a payload:
//
//	NULL:  tag only
//	Int:   8 bytes big-endian with the sign bit flipped
//	Real:  8 bytes big-endian IEEE, sign-adjusted so byte order = numeric order
//	Text:  escaped bytes terminated by 0x00 0x01 (0x00 in data -> 0x00 0xFF)
//	Blob:  same escaping as Text
//	Bool:  one byte 0/1

const (
	tagNull byte = 0x05
	tagNum  byte = 0x10 // Int, Real and Bool share a tag so they compare numerically
	tagText byte = 0x20
	tagBlob byte = 0x30
)

// KeyNullTag and KeyNumTag are the first byte of a NULL's and of a number's
// key encoding; a number's next 8 bytes, big-endian, ascend with its value.
const (
	KeyNullTag = tagNull
	KeyNumTag  = tagNum
)

// KeyValueLen returns the length of the key encoding of the one value at the
// front of b, or -1 when b does not start with a whole one.
func KeyValueLen(b []byte) int {
	if len(b) == 0 {
		return -1
	}
	switch b[0] {
	case tagNull:
		return 1
	case tagNum:
		if len(b) < 9 {
			return -1
		}
		return 9
	case tagText, tagBlob:
		for i := 1; ; i += 2 {
			j := bytes.IndexByte(b[i:], 0x00)
			if j < 0 || i+j+1 >= len(b) {
				return -1
			}
			i += j
			if b[i+1] == 0x01 {
				return i + 2
			}
		}
	}
	return -1
}

// EncodeKey appends the order-preserving encoding of vals to dst and returns
// the extended slice.
func EncodeKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		dst = encodeKeyValue(dst, v)
	}
	return dst
}

func encodeKeyValue(dst []byte, v Value) []byte {
	switch v.typ {
	case Null:
		return append(dst, tagNull)
	case Int, Bool:
		dst = append(dst, tagNum)
		return binary.BigEndian.AppendUint64(dst, uint64(v.i)^(1<<63))
	case Real:
		dst = append(dst, tagNum)
		bits := uint64(v.i) // the IEEE bits NewReal stored
		if bits&(1<<63) != 0 {
			bits = ^bits // negative: flip all bits
		} else {
			bits |= 1 << 63 // positive: set sign bit
		}
		return binary.BigEndian.AppendUint64(dst, bits)
	case Text:
		dst = append(dst, tagText)
		return appendEscaped(dst, v.s)
	case Blob:
		dst = append(dst, tagBlob)
		return appendEscaped(dst, v.s)
	default:
		panic(fmt.Sprintf("sqltypes: cannot key-encode %s", v.typ))
	}
}

// KeyLen returns the length of v's EncodeKey encoding.
func KeyLen(v Value) int {
	switch v.typ {
	case Null:
		return 1
	case Text, Blob:
		return 3 + len(v.s) + strings.Count(v.s, "\x00")
	}
	return 9
}

// AppendKeyFromRowValue appends to dst the key encoding of the value whose
// AppendRowValue encoding is rv, as RowValueSpan delimits it in a row that
// decodes: EncodeKey of the decoded value, without decoding it.
func AppendKeyFromRowValue(dst, rv []byte) []byte {
	switch rv[0] {
	case rowInt:
		i, _ := binary.Varint(rv[1:])
		return binary.BigEndian.AppendUint64(append(dst, tagNum), uint64(i)^(1<<63))
	case rowReal:
		return encodeKeyValue(dst, Value{typ: Real, i: int64(binary.LittleEndian.Uint64(rv[1:9]))})
	case rowText, rowBlob:
		tag := tagText
		if rv[0] == rowBlob {
			tag = tagBlob
		}
		_, used := binary.Uvarint(rv[1:])
		b := rv[1+used:]
		dst = append(dst, tag)
		for {
			i := bytes.IndexByte(b, 0x00)
			if i < 0 {
				return append(append(dst, b...), 0x00, 0x01)
			}
			dst = append(append(dst, b[:i]...), 0x00, 0xFF)
			b = b[i+1:]
		}
	case rowBool:
		return encodeKeyValue(dst, NewBool(rv[1] != 0))
	}
	return append(dst, tagNull)
}

// appendEscaped writes s with 0x00 escaped as 0x00 0xFF and a 0x00 0x01
// terminator. Lexicographic order of escaped forms equals order of raw forms,
// and a key that is a prefix of another sorts first. Zero-free runs (the
// overwhelmingly common case) are appended wholesale. Text and Blob payloads
// are both strings in a Value, so one function serves both.
func appendEscaped(dst []byte, s string) []byte {
	for len(s) > 0 {
		i := strings.IndexByte(s, 0x00)
		if i < 0 {
			dst = append(dst, s...)
			break
		}
		dst = append(dst, s[:i]...)
		dst = append(dst, 0x00, 0xFF)
		s = s[i+1:]
	}
	return append(dst, 0x00, 0x01)
}

// AppendPrefixSuccessor appends the smallest byte string greater than every
// string having prefix p to dst and returns the extended slice, or nil when
// no such string exists (p is all 0xFF). It turns prefix scans into
// [p, successor) range scans. dst may be p[:0]: the successor then replaces
// p in its own buffer.
func AppendPrefixSuccessor(dst, p []byte) []byte {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0xFF {
			dst = append(dst, p[:i+1]...)
			dst[len(dst)-1]++
			return dst
		}
	}
	return nil
}
