// Package dewey implements the paper's Dewey order encoding: every node is
// identified by the path of sibling ordinals from the root (e.g. 1.2.3 is
// the third child of the second child of the root). Two codecs are provided:
//
//   - the binary codec (Bytes/FromBytes): each component is a self-delimiting
//     prefix-free byte code chosen so that byte-wise lexicographic comparison
//     of encoded paths equals component-wise numeric comparison — document
//     order — and "p is an ancestor-or-self of q" is exactly "Bytes(p) is a
//     byte prefix of Bytes(q)". Descendant axes become index range scans.
//     This is the UTF-8-style encoding the paper recommends.
//
//   - the padded string codec (PaddedString/ParsePadded): fixed-width decimal
//     components joined with '.', order-preserving under string comparison
//     but much larger; it exists for the storage/performance ablation (E8).
package dewey

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Path is a Dewey path: the sibling ordinal at each level from the root.
// Ordinals are positive (gap-based orders use spaced positive values). The
// root of a document is the one-component path.
type Path []uint32

// Component range boundaries of the binary codec. The ranges are increasing
// and the first byte determines the code length, making codes prefix-free
// and order-preserving.
const (
	max1 = 0x7F         // 1 byte: 0x01..0x7E encode 1..126
	max2 = max1 + 1<<14 // 2 bytes: lead 0x80..0xBF
	max3 = max2 + 1<<21 // 3 bytes: lead 0xC0..0xDF
	// MaxComponent is the largest encodable ordinal; 4-byte codes use lead
	// bytes 0xE0..0xEF, keeping 0xF0..0xFF free (so a 0xFF sentinel can
	// never be confused with a lead byte).
	MaxComponent = uint32(max3 + 1<<28 - 1)
)

// String renders the path in dotted form, e.g. "1.2.3".
func (p Path) String() string {
	if len(p) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, c := range p {
		if i > 0 {
			sb.WriteByte('.')
		}
		sb.WriteString(strconv.FormatUint(uint64(c), 10))
	}
	return sb.String()
}

// Parse reads dotted form.
func Parse(s string) (Path, error) {
	if s == "" {
		return nil, fmt.Errorf("dewey: empty path")
	}
	parts := strings.Split(s, ".")
	p := make(Path, len(parts))
	for i, part := range parts {
		v, err := strconv.ParseUint(part, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("dewey: bad component %q: %w", part, err)
		}
		if v == 0 || uint32(v) > MaxComponent {
			return nil, fmt.Errorf("dewey: component %d out of range", v)
		}
		p[i] = uint32(v)
	}
	return p, nil
}

// Clone copies the path.
func (p Path) Clone() Path {
	out := make(Path, len(p))
	copy(out, p)
	return out
}

// Parent returns the path with the last component removed, or nil for a
// root path.
func (p Path) Parent() Path {
	if len(p) <= 1 {
		return nil
	}
	return p[:len(p)-1].Clone()
}

// Child returns p extended with ordinal ord.
func (p Path) Child(ord uint32) Path {
	out := make(Path, len(p)+1)
	copy(out, p)
	out[len(p)] = ord
	return out
}

// WithLast returns a copy of p whose final component is ord.
func (p Path) WithLast(ord uint32) Path {
	out := p.Clone()
	out[len(out)-1] = ord
	return out
}

// Last returns the final component (the sibling ordinal).
func (p Path) Last() uint32 { return p[len(p)-1] }

// Depth returns the number of components.
func (p Path) Depth() int { return len(p) }

// Compare orders paths in document order (component-wise; a proper ancestor
// precedes its descendants).
func Compare(a, b Path) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// IsAncestorOf reports whether p is a proper ancestor of q.
func (p Path) IsAncestorOf(q Path) bool {
	if len(p) >= len(q) {
		return false
	}
	for i, c := range p {
		if q[i] != c {
			return false
		}
	}
	return true
}

// Bytes encodes the path with the binary codec. Panics on zero or
// out-of-range components (they cannot be produced by the public
// constructors).
func (p Path) Bytes() []byte {
	return p.AppendBytes(make([]byte, 0, len(p)*2))
}

// AppendBytes appends the binary encoding of p to dst and returns the
// extended slice, letting hot loops share one buffer across many paths.
func (p Path) AppendBytes(dst []byte) []byte {
	for _, c := range p {
		dst = appendComponent(dst, c)
	}
	return dst
}

func appendComponent(dst []byte, c uint32) []byte {
	if c == 0 || c > MaxComponent {
		panic(fmt.Sprintf("dewey: component %d out of range", c))
	}
	switch {
	case c < max1:
		return append(dst, byte(c))
	case c < max2:
		v := c - max1
		return append(dst, 0x80|byte(v>>8), byte(v))
	case c < max3:
		v := c - max2
		return append(dst, 0xC0|byte(v>>16), byte(v>>8), byte(v))
	default:
		v := c - max3
		return append(dst, 0xE0|byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
}

// FromBytes decodes a binary path.
func FromBytes(b []byte) (Path, error) {
	var p Path
	i := 0
	for i < len(b) {
		first := b[i]
		var need int
		switch {
		case first < 0x7F:
			need = 1
		case first >= 0x80 && first < 0xC0:
			need = 2
		case first >= 0xC0 && first < 0xE0:
			need = 3
		case first >= 0xE0 && first < 0xF0:
			need = 4
		default:
			return nil, fmt.Errorf("dewey: bad lead byte 0x%02x at %d", first, i)
		}
		if i+need > len(b) {
			return nil, fmt.Errorf("dewey: truncated component at %d", i)
		}
		var c uint32
		switch need {
		case 1:
			c = uint32(first)
		case 2:
			c = max1 + uint32(first&0x3F)<<8 + uint32(b[i+1])
		case 3:
			c = max2 + uint32(first&0x1F)<<16 + uint32(b[i+1])<<8 + uint32(b[i+2])
		case 4:
			c = max3 + uint32(first&0x0F)<<24 + uint32(b[i+1])<<16 + uint32(b[i+2])<<8 + uint32(b[i+3])
		}
		if c == 0 {
			return nil, fmt.Errorf("dewey: zero component at %d", i)
		}
		p = append(p, c)
		i += need
	}
	if len(p) == 0 {
		return nil, fmt.Errorf("dewey: empty encoding")
	}
	return p, nil
}

// ShiftBytes returns the binary-encoded path b with delta added to its
// 0-based component depth. It fails when b does not decode, has no such
// component, or the shifted component is outside the binary codec's range.
func ShiftBytes(b []byte, depth int, delta int64) ([]byte, error) {
	p, err := FromBytes(b)
	if err != nil {
		return nil, err
	}
	if depth < 0 || depth >= len(p) {
		return nil, fmt.Errorf("dewey: path %s has no component %d", p, depth)
	}
	if p[depth], err = shifted(p[depth], delta, false); err != nil {
		return nil, err
	}
	return p.Bytes(), nil
}

// PrefixSuccessor returns the exclusive upper bound of the byte range
// containing every descendant-or-self encoding of p: keys k with
// Bytes(p) <= k < PrefixSuccessor(p) are exactly p and its descendants.
func (p Path) PrefixSuccessor() []byte {
	b := p.Bytes()
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xFF {
			out := make([]byte, i+1)
			copy(out, b[:i+1])
			out[i]++
			return out
		}
	}
	return nil
}

// PaddedWidth is the component width of the padded string codec, and
// MaxPaddedComponent the largest ordinal it holds: a wider component would
// sort before its narrower siblings, out of document order.
const (
	PaddedWidth        = 8
	MaxPaddedComponent = 99_999_999
)

// ErrRange reports a component the codec cannot encode.
var ErrRange = errors.New("dewey: component out of range")

// Component checks that c is encodable — by the padded codec when padded,
// else by the binary codec — and returns it as a path component. Callers
// compute ordinals in uint64 so that ordinal × gap cannot wrap first.
func Component(c uint64, padded bool) (uint32, error) {
	limit := uint64(MaxComponent)
	if padded {
		limit = MaxPaddedComponent
	}
	if c == 0 || c > limit {
		return 0, fmt.Errorf("%w: %d (codec maximum %d)", ErrRange, c, limit)
	}
	return uint32(c), nil
}

// shifted is c + delta as a component of the codec.
func shifted(c uint32, delta int64, padded bool) (uint32, error) {
	v := int64(c) + delta
	if v <= 0 {
		return 0, fmt.Errorf("%w: %d%+d", ErrRange, c, delta)
	}
	return Component(uint64(v), padded)
}

// PaddedString renders the path with fixed-width zero-padded components so
// that plain string comparison preserves document order ("00000002" <
// "00000010"). This is the string-Dewey variant measured by ablation E8.
func (p Path) PaddedString() string {
	var sb strings.Builder
	for i, c := range p {
		if i > 0 {
			sb.WriteByte('.')
		}
		fmt.Fprintf(&sb, "%0*d", PaddedWidth, c)
	}
	return sb.String()
}

// ShiftPadded returns the padded path s with delta added to its 0-based
// component depth; the components before and after are copied unchanged. It
// fails when s has no such padded component or the shifted component is
// outside the padded codec's range.
func ShiftPadded(s string, depth int, delta int64) (string, error) {
	start := depth * (PaddedWidth + 1)
	end := start + PaddedWidth
	if depth < 0 || end > len(s) || end < len(s) && s[end] != '.' {
		return "", fmt.Errorf("dewey: %q has no padded component %d", s, depth)
	}
	c, err := strconv.ParseUint(s[start:end], 10, 32)
	if err != nil || c == 0 {
		return "", fmt.Errorf("dewey: bad padded component %q in %q", s[start:end], s)
	}
	nc, err := shifted(uint32(c), delta, true)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s%0*d%s", s[:start], PaddedWidth, nc, s[end:]), nil
}

// ParsePadded reads the padded form.
func ParsePadded(s string) (Path, error) {
	return Parse(trimZeroes(s))
}

func trimZeroes(s string) string {
	parts := strings.Split(s, ".")
	for i, part := range parts {
		trimmed := strings.TrimLeft(part, "0")
		if trimmed == "" {
			trimmed = "0"
		}
		parts[i] = trimmed
	}
	return strings.Join(parts, ".")
}

// PaddedPrefixSuccessor is the string-codec analogue of PrefixSuccessor: the
// exclusive upper bound for descendants of p under string comparison. With
// the padded codec, every descendant string starts with p's padded form
// followed by '.', so the bound is that prefix with '.'+1.
func (p Path) PaddedPrefixSuccessor() string {
	return p.PaddedString() + string(rune('.'+1))
}

// PaddedDescendantLow is the inclusive lower bound for proper descendants.
func (p Path) PaddedDescendantLow() string {
	return p.PaddedString() + "."
}
