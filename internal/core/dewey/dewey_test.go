package dewey

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func p(comps ...uint32) Path { return Path(comps) }

func TestStringRoundTrip(t *testing.T) {
	cases := []Path{
		p(1),
		p(1, 2, 3),
		p(126, 127, 128),
		p(1, MaxComponent),
	}
	for _, in := range cases {
		s := in.String()
		got, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if Compare(in, got) != 0 {
			t.Errorf("round trip %q -> %v", s, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"", "1..2", "a", "1.b", "0", "1.0", "-1", "99999999999"}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded", s)
		}
	}
}

func TestNavigation(t *testing.T) {
	q := p(1, 2, 3)
	if got := q.Parent(); Compare(got, p(1, 2)) != 0 {
		t.Errorf("Parent = %v", got)
	}
	if got := p(1).Parent(); got != nil {
		t.Errorf("root Parent = %v", got)
	}
	if got := q.Child(7); Compare(got, p(1, 2, 3, 7)) != 0 {
		t.Errorf("Child = %v", got)
	}
	if got := q.WithLast(9); Compare(got, p(1, 2, 9)) != 0 {
		t.Errorf("WithLast = %v", got)
	}
	if q.Last() != 3 || q.Depth() != 3 {
		t.Errorf("Last/Depth = %d/%d", q.Last(), q.Depth())
	}
	// Child must not alias the parent's backing array.
	base := p(1, 2)
	c1 := base.Child(1)
	_ = base.Child(2)
	if c1[2] != 1 {
		t.Error("Child aliased shared backing array")
	}
}

func TestCompareAndAncestor(t *testing.T) {
	cases := []struct {
		a, b Path
		want int
	}{
		{p(1), p(1), 0},
		{p(1), p(2), -1},
		{p(1, 5), p(1, 6), -1},
		{p(1), p(1, 1), -1},     // ancestor before descendant
		{p(1, 2), p(1, 10), -1}, // numeric, not lexicographic
		{p(2), p(1, 9), 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Compare(c.b, c.a); got != -c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.b, c.a, got, -c.want)
		}
	}
	if !p(1, 2).IsAncestorOf(p(1, 2, 3)) {
		t.Error("direct ancestor not detected")
	}
	if !p(1).IsAncestorOf(p(1, 2, 3)) {
		t.Error("transitive ancestor not detected")
	}
	if p(1, 2).IsAncestorOf(p(1, 2)) {
		t.Error("self reported as ancestor")
	}
	if p(1, 2).IsAncestorOf(p(1, 3, 1)) {
		t.Error("non-ancestor reported")
	}
	if p(1, 2, 3).IsAncestorOf(p(1, 2)) {
		t.Error("descendant reported as ancestor")
	}
}

// randPath generates components across all four code lengths.
func randPath(r *rand.Rand) Path {
	depth := 1 + r.Intn(6)
	out := make(Path, depth)
	for i := range out {
		switch r.Intn(4) {
		case 0:
			out[i] = 1 + uint32(r.Intn(125))
		case 1:
			out[i] = 127 + uint32(r.Intn(1<<14))
		case 2:
			out[i] = max2 + uint32(r.Intn(1<<21))
		default:
			out[i] = max3 + uint32(r.Intn(1<<28))
		}
	}
	return out
}

// Property: binary codec round-trips.
func TestBytesRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randPath(r)
		got, err := FromBytes(in.Bytes())
		return err == nil && Compare(in, got) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: byte order equals document order. This is the core claim that
// makes Dewey indexes work.
func TestBytesOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randPath(r), randPath(r)
		return sign(bytes.Compare(a.Bytes(), b.Bytes())) == sign(Compare(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: ancestor-or-self iff byte prefix.
func TestBytesPrefixProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randPath(r), randPath(r)
		if r.Intn(2) == 0 {
			// Make a an ancestor of b half the time.
			b = append(a.Clone(), randPath(r)...)
		}
		isPrefix := bytes.HasPrefix(b.Bytes(), a.Bytes())
		wantPrefix := a.IsAncestorOf(b) || Compare(a, b) == 0
		return isPrefix == wantPrefix
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: PrefixSuccessor bounds exactly the descendant-or-self set.
func TestPrefixSuccessorProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randPath(r)
		succ := a.PrefixSuccessor()
		ab := a.Bytes()
		for i := 0; i < 20; i++ {
			q := randPath(r)
			if r.Intn(2) == 0 {
				q = append(a.Clone(), randPath(r)...)
			}
			qb := q.Bytes()
			inRange := bytes.Compare(qb, ab) >= 0 && (succ == nil || bytes.Compare(qb, succ) < 0)
			wantIn := Compare(a, q) == 0 || a.IsAncestorOf(q)
			if inRange != wantIn {
				t.Logf("a=%v q=%v inRange=%v want=%v", a, q, inRange, wantIn)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestFromBytesErrors(t *testing.T) {
	bad := [][]byte{
		{},
		{0x7F},       // unused lead byte
		{0xFF},       // sentinel range
		{0x80},       // truncated 2-byte
		{0xC0, 0x01}, // truncated 3-byte
		{0xE0, 1, 2}, // truncated 4-byte
		{0x00},       // zero component
	}
	for _, b := range bad {
		if _, err := FromBytes(b); err == nil {
			t.Errorf("FromBytes(%x) succeeded", b)
		}
	}
}

func TestComponentBoundaries(t *testing.T) {
	// Each boundary value must round-trip and order correctly vs neighbours.
	boundaries := []uint32{1, 2, 125, 126, 127, 128, max2 - 1, max2, max2 + 1,
		max3 - 1, max3, max3 + 1, MaxComponent - 1, MaxComponent}
	var prev []byte
	for i, c := range boundaries {
		path := p(c)
		got, err := FromBytes(path.Bytes())
		if err != nil || got[0] != c {
			t.Fatalf("component %d: round trip %v, %v", c, got, err)
		}
		if i > 0 && bytes.Compare(prev, path.Bytes()) >= 0 {
			t.Fatalf("order broken at component %d", c)
		}
		prev = path.Bytes()
	}
}

func TestEncodeOutOfRangePanics(t *testing.T) {
	for _, c := range []uint32{0, MaxComponent + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bytes with component %d did not panic", c)
				}
			}()
			p(c).Bytes()
		}()
	}
}

func TestPaddedCodec(t *testing.T) {
	in := p(1, 42, 100000)
	s := in.PaddedString()
	if s != "00000001.00000042.00100000" {
		t.Errorf("PaddedString = %s", s)
	}
	got, err := ParsePadded(s)
	if err != nil || Compare(in, got) != 0 {
		t.Errorf("ParsePadded = %v, %v", got, err)
	}
	// String order must equal document order (that's the codec's purpose).
	pairs := [][2]Path{
		{p(2), p(10)},
		{p(1, 2), p(1, 10)},
		{p(1), p(1, 1)},
		{p(1, 9), p(2)},
	}
	for _, pair := range pairs {
		a, b := pair[0], pair[1]
		if !(strings.Compare(a.PaddedString(), b.PaddedString()) < 0) {
			t.Errorf("padded order broken: %v vs %v", a, b)
		}
	}
	// Descendant range bounds.
	a := p(1, 2)
	low, high := a.PaddedDescendantLow(), a.PaddedPrefixSuccessor()
	desc := p(1, 2, 3).PaddedString()
	sib := p(1, 3).PaddedString()
	if !(desc >= low && desc < high) {
		t.Error("descendant outside padded range")
	}
	if sib >= low && sib < high {
		t.Error("sibling inside padded range")
	}
	if self := a.PaddedString(); self >= low && self < high {
		t.Error("self inside proper-descendant padded range")
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

func TestComponentRange(t *testing.T) {
	cases := []struct {
		c      uint64
		padded bool
		ok     bool
	}{
		{1, false, true},
		{uint64(MaxComponent), false, true},
		{uint64(MaxComponent) + 1, false, false},
		{400_000_000, false, false},
		{1 << 32, false, false}, // would wrap to 0 in uint32
		{1<<32 + 5, false, false},
		{0, false, false},
		{MaxPaddedComponent, true, true},
		{MaxPaddedComponent + 1, true, false},
		{0, true, false},
	}
	for _, c := range cases {
		got, err := Component(c.c, c.padded)
		if c.ok != (err == nil) {
			t.Errorf("Component(%d, padded=%v) error = %v", c.c, c.padded, err)
		}
		if err != nil && !errors.Is(err, ErrRange) {
			t.Errorf("Component(%d) error %v is not ErrRange", c.c, err)
		}
		if c.ok && uint64(got) != c.c {
			t.Errorf("Component(%d) = %d", c.c, got)
		}
	}
	// Every padded component is exactly PaddedWidth digits wide, so padded
	// strings order like paths up to the padded maximum.
	if w := len(Path{MaxPaddedComponent}.PaddedString()); w != PaddedWidth {
		t.Errorf("largest padded component is %d digits, want %d", w, PaddedWidth)
	}
}

// The shift helpers agree with the Path reference: decode, add delta to one
// component, encode.
func TestShiftMatchesPath(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for n := 0; n < 5000; n++ {
		in := randPath(r)
		depth := r.Intn(len(in))
		var delta int64
		switch r.Intn(3) {
		case 0:
			delta = int64(r.Intn(200))
		case 1:
			delta = int64(r.Intn(1 << 22))
		default:
			delta = -int64(r.Intn(int(in[depth])))
		}
		want := in.Clone()
		want[depth] = uint32(int64(want[depth]) + delta)
		got, err := ShiftBytes(in.Bytes(), depth, delta)
		if want[depth] > MaxComponent {
			if !errors.Is(err, ErrRange) {
				t.Fatalf("ShiftBytes(%v, %d, %d) = %x, %v; want a range error", in, depth, delta, got, err)
			}
		} else if err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("ShiftBytes(%v, %d, %d) = %x, %v; want %v", in, depth, delta, got, err, want)
		}

		padded := in.Clone()
		for i := range padded {
			padded[i] %= MaxPaddedComponent + 1
			if padded[i] == 0 {
				padded[i] = 1
			}
		}
		if delta < 0 {
			delta = -int64(r.Intn(int(padded[depth])))
		}
		want = padded.Clone()
		want[depth] = uint32(int64(want[depth]) + delta)
		gotS, err := ShiftPadded(padded.PaddedString(), depth, delta)
		if want[depth] > MaxPaddedComponent {
			if !errors.Is(err, ErrRange) {
				t.Fatalf("ShiftPadded(%v, %d, %d) = %q, %v; want a range error", padded, depth, delta, gotS, err)
			}
		} else if err != nil || gotS != want.PaddedString() {
			t.Fatalf("ShiftPadded(%v, %d, %d) = %q, %v; want %v", padded, depth, delta, gotS, err, want)
		}
	}
}

func TestShiftErrors(t *testing.T) {
	b := Path{1, 2, 3}.Bytes()
	for _, depth := range []int{-1, 3, 10} {
		if _, err := ShiftBytes(b, depth, 1); err == nil {
			t.Errorf("ShiftBytes depth %d accepted", depth)
		}
		if _, err := ShiftPadded(Path{1, 2, 3}.PaddedString(), depth, 1); err == nil {
			t.Errorf("ShiftPadded depth %d accepted", depth)
		}
	}
	if _, err := ShiftBytes(b, 1, -2); !errors.Is(err, ErrRange) {
		t.Errorf("shift to zero: %v", err)
	}
	if _, err := ShiftBytes(Path{1, MaxComponent}.Bytes(), 1, 1); !errors.Is(err, ErrRange) {
		t.Errorf("shift past MaxComponent: %v", err)
	}
	if _, err := ShiftPadded(Path{1, MaxPaddedComponent}.PaddedString(), 1, 1); !errors.Is(err, ErrRange) {
		t.Errorf("shift past MaxPaddedComponent: %v", err)
	}
	for _, s := range []string{"", "1.2", "00000001.2", "00000001.000000002", "00000001.00000000", "00000001.0000000x"} {
		if _, err := ShiftPadded(s, 1, 1); err == nil {
			t.Errorf("ShiftPadded(%q, 1, 1) accepted", s)
		}
	}
	for _, bad := range [][]byte{{0xFF}, {0x80}, {0x01, 0xE0, 0x01}} {
		if _, err := ShiftBytes(bad, 1, 1); err == nil {
			t.Errorf("ShiftBytes(%x) accepted", bad)
		}
	}
}
