package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ordxml/internal/sqldb/heap"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
func rid(i int) heap.RID {
	return heap.RID{Page: uint32(i / 100), Slot: uint16(i % 100)}
}

func TestInsertGet(t *testing.T) {
	tr := New()
	const n = 10000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, i := range perm {
		if err := tr.Insert(key(i), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < n; i++ {
		got, ok := tr.Get(key(i))
		if !ok || got != rid(i) {
			t.Fatalf("Get(%d) = %v, %v", i, got, ok)
		}
	}
	if _, ok := tr.Get([]byte("missing")); ok {
		t.Fatal("Get(missing) succeeded")
	}
}

func TestDuplicate(t *testing.T) {
	tr := New()
	if err := tr.Insert([]byte("a"), rid(1)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert([]byte("a"), rid(2)); err != ErrDuplicate {
		t.Fatalf("duplicate insert: %v", err)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after rejected duplicate", tr.Len())
	}
}

func TestInsertCopiesKey(t *testing.T) {
	tr := New()
	k := []byte("abc")
	tr.Insert(k, rid(1))
	k[0] = 'z'
	if _, ok := tr.Get([]byte("abc")); !ok {
		t.Fatal("tree aliased caller's key buffer")
	}
}

func TestDeleteMissing(t *testing.T) {
	tr := New()
	if err := tr.Delete([]byte("nope")); err != ErrNotFound {
		t.Fatalf("Delete(missing) = %v", err)
	}
	tr.Insert([]byte("a"), rid(1))
	if err := tr.Delete([]byte("b")); err != ErrNotFound {
		t.Fatalf("Delete(missing) = %v", err)
	}
}

func TestInsertDeleteAll(t *testing.T) {
	tr := New()
	const n = 5000
	r := rand.New(rand.NewSource(3))
	perm := r.Perm(n)
	for _, i := range perm {
		tr.Insert(key(i), rid(i))
	}
	perm2 := r.Perm(n)
	for j, i := range perm2 {
		if err := tr.Delete(key(i)); err != nil {
			t.Fatalf("Delete(%d): %v", i, err)
		}
		if tr.Len() != n-j-1 {
			t.Fatalf("Len = %d, want %d", tr.Len(), n-j-1)
		}
	}
	it := tr.Seek(nil, nil)
	if it.Valid() {
		t.Fatal("iterator valid on empty tree")
	}
}

func TestSeekRange(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i += 2 { // even keys only
		tr.Insert(key(i), rid(i))
	}
	// Range [key(100), key(200)) should see even keys 100..198.
	it := tr.Seek(key(100), key(200))
	want := 100
	for ; it.Valid(); it.Next() {
		if !bytes.Equal(it.Key(), key(want)) {
			t.Fatalf("got %q want %q", it.Key(), key(want))
		}
		if it.RID() != rid(want) {
			t.Fatalf("rid mismatch at %d", want)
		}
		want += 2
	}
	if want != 200 {
		t.Fatalf("range stopped at %d", want)
	}
	// Seek to a key between entries starts at the next entry.
	it = tr.Seek(key(101), nil)
	if !it.Valid() || !bytes.Equal(it.Key(), key(102)) {
		t.Fatalf("seek between keys: %q", it.Key())
	}
	// Full scan from nil.
	count := 0
	for it := tr.Seek(nil, nil); it.Valid(); it.Next() {
		count++
	}
	if count != 500 {
		t.Fatalf("full scan saw %d", count)
	}
	// Seek past the end.
	if it := tr.Seek([]byte("zzz"), nil); it.Valid() {
		t.Fatal("seek past end is valid")
	}
}

func TestScanPrefix(t *testing.T) {
	tr := New()
	tr.Insert([]byte("a"), rid(0))
	tr.Insert([]byte("ab"), rid(1))
	tr.Insert([]byte("ab\x00"), rid(2))
	tr.Insert([]byte("ab\xff"), rid(3))
	tr.Insert([]byte("ac"), rid(4))
	var got []string
	for it := tr.ScanPrefix([]byte("ab")); it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
	}
	want := []string{"ab", "ab\x00", "ab\xff"}
	if len(got) != len(want) {
		t.Fatalf("prefix scan = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prefix scan = %q, want %q", got, want)
		}
	}
	// All-0xFF prefix has no successor: scans to the end.
	tr.Insert([]byte{0xFF, 0xFF, 0x01}, rid(5))
	n := 0
	for it := tr.ScanPrefix([]byte{0xFF, 0xFF}); it.Valid(); it.Next() {
		n++
	}
	if n != 1 {
		t.Fatalf("0xFF prefix scan saw %d", n)
	}
}

// Torture test: random operations mirrored against a sorted reference.
func TestRandomAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	tr := New()
	ref := map[string]heap.RID{}
	randKey := func() []byte {
		// Small key space forces collisions, duplicates and heavy
		// delete/reinsert of the same keys.
		return []byte(fmt.Sprintf("k%04d", r.Intn(3000)))
	}
	for op := 0; op < 60000; op++ {
		k := randKey()
		switch r.Intn(3) {
		case 0:
			v := rid(r.Intn(1 << 20))
			err := tr.Insert(k, v)
			if _, exists := ref[string(k)]; exists {
				if err != ErrDuplicate {
					t.Fatalf("op %d: expected duplicate error", op)
				}
			} else if err != nil {
				t.Fatalf("op %d: %v", op, err)
			} else {
				ref[string(k)] = v
			}
		case 1:
			err := tr.Delete(k)
			if _, exists := ref[string(k)]; exists {
				if err != nil {
					t.Fatalf("op %d: delete: %v", op, err)
				}
				delete(ref, string(k))
			} else if err != ErrNotFound {
				t.Fatalf("op %d: expected not found", op)
			}
		default:
			got, ok := tr.Get(k)
			want, exists := ref[string(k)]
			if ok != exists || (ok && got != want) {
				t.Fatalf("op %d: Get(%q) = %v,%v want %v,%v", op, k, got, ok, want, exists)
			}
		}
		if op%5000 == 0 {
			checkAgainstRef(t, tr, ref)
		}
	}
	checkAgainstRef(t, tr, ref)
}

func checkAgainstRef(t *testing.T, tr *Tree, ref map[string]heap.RID) {
	t.Helper()
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(ref))
	}
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	for it := tr.Seek(nil, nil); it.Valid(); it.Next() {
		if i >= len(keys) {
			t.Fatal("iterator has extra entries")
		}
		if string(it.Key()) != keys[i] {
			t.Fatalf("scan order: got %q want %q at %d", it.Key(), keys[i], i)
		}
		if it.RID() != ref[keys[i]] {
			t.Fatalf("rid mismatch at %q", keys[i])
		}
		i++
	}
	if i != len(keys) {
		t.Fatalf("iterator saw %d entries, want %d", i, len(keys))
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(key(i), rid(i))
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New()
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Insert(key(i), rid(i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Get(key(i % n))
	}
}

// TestInsertMixedKeyLengthsValidates: inserts alone, over keys whose lengths
// vary enough that nodes split on bytes before they reach maxKeys, must leave
// a tree Validate accepts. A count-midpoint byte split left halves with too
// few keys and under half the budget while a neighbor merge fit.
func TestInsertMixedKeyLengthsValidates(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		tr := New()
		for i := 0; i < 3000; i++ {
			k := fmt.Sprintf("%08d-%s", r.Intn(1<<30), strings.Repeat("x", r.Intn(150)))
			if err := tr.Insert([]byte(k), rid(i)); err != nil && err != ErrDuplicate {
				t.Fatal(err)
			}
		}
		if problems := tr.Validate(); problems != nil {
			t.Fatalf("seed %d: %v", seed, problems)
		}
	}
}
