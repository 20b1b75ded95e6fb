package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"unsafe"

	"ordxml/internal/sqldb/heap"
)

// descKey draws keys that share prefixes heavily, so range bounds fall on
// and between keys of every length.
func descKey(rng *rand.Rand) []byte {
	prefixes := []string{"", "a", "ab", "abc", "b", "ba"}
	k := []byte(prefixes[rng.Intn(len(prefixes))])
	for n := rng.Intn(4); n > 0; n-- {
		k = append(k, "abc\x00\xff"[rng.Intn(5)])
	}
	return append(k, byte(rng.Intn(256)))
}

// separators returns every separator key of the tree's interior nodes.
func separators(n *node) [][]byte {
	n.ensure()
	if n.leaf() {
		return nil
	}
	out := append([][]byte(nil), n.keys...)
	for _, c := range n.children {
		out = append(out, separators(c)...)
	}
	return out
}

// descRange is one [start, end) range of the model test.
type descRange struct{ start, end []byte }

// randomRanges draws ranges whose bounds are nil, stored keys, separator
// keys or fresh keys, including empty and inverted ranges.
func randomRanges(rng *rand.Rand, keys, seps [][]byte, n int) []descRange {
	bound := func() []byte {
		switch rng.Intn(5) {
		case 0:
			return nil
		case 1:
			return keys[rng.Intn(len(keys))]
		case 2:
			return seps[rng.Intn(len(seps))]
		default:
			return descKey(rng)
		}
	}
	out := make([]descRange, 0, n+2)
	for i := 0; i < n; i++ {
		out = append(out, descRange{bound(), bound()})
	}
	s := seps[rng.Intn(len(seps))]
	return append(out, descRange{s, s}, descRange{nil, nil})
}

// modelDesc is the reference answer: the sorted keys of [start, end),
// reversed.
func modelDesc(sorted [][]byte, r descRange) [][]byte {
	var out [][]byte
	for i := len(sorted) - 1; i >= 0; i-- {
		k := sorted[i]
		if (r.end == nil || bytes.Compare(k, r.end) < 0) && (r.start == nil || bytes.Compare(k, r.start) >= 0) {
			out = append(out, k)
		}
	}
	return out
}

// readDesc drains a descending iterator, checking each RID against want,
// and returns the keys it produced and the node reads it metered.
func readDesc(t *testing.T, it *Iterator, reads *atomic.Int64, want map[string]heap.RID) ([][]byte, int64) {
	t.Helper()
	before := reads.Load()
	var got [][]byte
	for ; it.Valid(); it.Next() {
		if rid, ok := want[string(it.Key())]; !ok || rid != it.RID() {
			t.Fatalf("key %x: rid %v, want %v (present %v)", it.Key(), it.RID(), rid, ok)
		}
		got = append(got, it.Key())
	}
	return got, reads.Load() - before
}

func sameKeys(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestSeekDescModel compares SeekDesc with a reversed sorted slice on random
// ranges over a memory tree, the same tree paged through an 8-frame pool
// (lazy nodes and eviction), and a snapshot that further mutations leave
// behind. The paged tree and the snapshot have the memory tree's shape, so
// every range must also meter exactly the node reads it did there.
func TestSeekDescModel(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	mem := New()
	mem.NodeReads = new(atomic.Int64)
	pool := newTestPool(t, 8)
	paged := NewPaged(pool)
	ref := map[string]heap.RID{}
	for i := 0; i < 6000; i++ {
		k := descKey(rng)
		if _, dup := ref[string(k)]; dup {
			// Deletes leave separators that no longer name a stored key.
			if rng.Intn(3) == 0 {
				delete(ref, string(k))
				for _, tr := range []*Tree{mem, paged} {
					if err := tr.Delete(k); err != nil {
						t.Fatal(err)
					}
				}
			}
			continue
		}
		ref[string(k)] = rid(i)
		for _, tr := range []*Tree{mem, paged} {
			if err := tr.Insert(k, rid(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	root, err := paged.WritePages()
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	lazy := Restore(pool, root, paged.Len())
	lazy.NodeReads = new(atomic.Int64)

	sorted := make([][]byte, 0, len(ref))
	for k := range ref {
		sorted = append(sorted, []byte(k))
	}
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
	seps := separators(mem.root)
	if len(seps) < 64 {
		t.Fatalf("tree has only %d separators; the test needs a multi-level tree", len(seps))
	}
	ranges := randomRanges(rng, sorted, seps, 400)

	memReads := make([]int64, len(ranges))
	for i, r := range ranges {
		want := modelDesc(sorted, r)
		got, reads := readDesc(t, mem.SeekDesc(r.start, r.end), mem.NodeReads, ref)
		if !sameKeys(got, want) {
			t.Fatalf("memory [%x, %x): %d keys, want %d", r.start, r.end, len(got), len(want))
		}
		memReads[i] = reads
		got, reads = readDesc(t, lazy.SeekDesc(r.start, r.end), lazy.NodeReads, ref)
		if !sameKeys(got, want) {
			t.Fatalf("paged [%x, %x): %d keys, want %d", r.start, r.end, len(got), len(want))
		}
		if reads != memReads[i] {
			t.Fatalf("paged [%x, %x): %d node reads, memory tree %d", r.start, r.end, reads, memReads[i])
		}
	}

	snap := mem.Snapshot()
	snapRef := make(map[string]heap.RID, len(ref))
	for k, v := range ref {
		snapRef[k] = v
	}
	for i := 0; i < 3000; i++ {
		k := descKey(rng)
		if _, ok := ref[string(k)]; ok {
			delete(ref, string(k))
			if err := mem.Delete(k); err != nil {
				t.Fatal(err)
			}
		} else if err := mem.Insert(k, rid(i)); err != nil {
			t.Fatal(err)
		} else {
			ref[string(k)] = rid(i)
		}
	}
	for i, r := range ranges {
		got, reads := readDesc(t, snap.SeekDesc(r.start, r.end), mem.NodeReads, snapRef)
		if want := modelDesc(sorted, r); !sameKeys(got, want) {
			t.Fatalf("snapshot [%x, %x): %d keys, want %d", r.start, r.end, len(got), len(want))
		}
		if reads != memReads[i] {
			t.Fatalf("snapshot [%x, %x): %d node reads, %d before the mutations", r.start, r.end, reads, memReads[i])
		}
	}
}

// TestSeekDescNodeReads pins the metering: a full scan reads every node once
// in either direction, and on a tree built by inserts alone (every separator
// is the smallest key of its right subtree) positioning a descending
// iterator reads exactly one root-to-leaf path.
func TestSeekDescNodeReads(t *testing.T) {
	tr := New()
	tr.NodeReads = new(atomic.Int64)
	for i := 0; i < 20000; i += 2 {
		if err := tr.Insert(key(i), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	var nodes func(n *node) int64
	nodes = func(n *node) int64 {
		total := int64(1)
		for _, c := range n.children {
			total += nodes(c)
		}
		return total
	}
	height := int64(1)
	for n := tr.root; !n.leaf(); n = n.children[0] {
		height++
	}
	if height < 3 {
		t.Fatalf("height %d; the test needs interior levels", height)
	}
	metered := func(fn func()) int64 {
		before := tr.NodeReads.Load()
		fn()
		return tr.NodeReads.Load() - before
	}
	drain := func(it *Iterator) {
		for ; it.Valid(); it.Next() {
		}
	}
	all := nodes(tr.root)
	if got := metered(func() { drain(tr.Seek(nil, nil)) }); got != all {
		t.Errorf("ascending full scan read %d nodes, tree has %d", got, all)
	}
	if got := metered(func() { drain(tr.SeekDesc(nil, nil)) }); got != all {
		t.Errorf("descending full scan read %d nodes, tree has %d", got, all)
	}
	for _, end := range [][]byte{nil, key(19999), key(10000), key(10001), key(2)} {
		var it *Iterator
		if got := metered(func() { it = tr.SeekDesc(nil, end) }); got != height {
			t.Errorf("SeekDesc(nil, %s) read %d nodes, height %d", end, got, height)
		}
		if !it.Valid() {
			t.Errorf("SeekDesc(nil, %s) is empty", end)
		}
	}
	if it := tr.SeekDesc(nil, key(0)); it.Valid() {
		t.Errorf("SeekDesc below the smallest key is valid at %s", it.Key())
	}
	if it := tr.SeekDesc(key(5), key(19999)); !it.Valid() || !bytes.Equal(it.Key(), key(19998)) {
		t.Errorf("SeekDesc(5, 19999) not positioned at key 19998")
	}
}

// TestIteratorSizeClass keeps Iterator in the 64-byte size class. An index
// join opens one iterator for its whole run and moves it with Reseek, but
// every index scan still opens its own, and the direction flag must not push
// it into the next class.
func TestIteratorSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Iterator{}); size > 64 {
		t.Fatalf("Iterator is %d bytes, want at most 64", size)
	}
}

func TestSeekDescEmptyTree(t *testing.T) {
	tr := New()
	for _, r := range []descRange{{nil, nil}, {[]byte("a"), nil}, {nil, []byte("a")}} {
		if it := tr.SeekDesc(r.start, r.end); it.Valid() {
			t.Errorf("empty tree: SeekDesc(%q, %q) valid", r.start, r.end)
		}
	}
	tr.Insert([]byte("m"), rid(1))
	var got []string
	for it := tr.SeekDesc([]byte("m"), []byte("n")); it.Valid(); it.Next() {
		got = append(got, string(it.Key()))
	}
	if fmt.Sprint(got) != "[m]" {
		t.Errorf("single key range = %v", got)
	}
}
