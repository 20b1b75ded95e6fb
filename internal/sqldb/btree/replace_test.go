package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ordxml/internal/sqldb/bufpool"
	"ordxml/internal/sqldb/heap"
)

// replaceKey is key i of the Replace tests' key space: short, or (every
// seventh index) byte-heavy enough that leaves split on bytes and hold only
// a few keys.
func replaceKey(i int) []byte {
	k := fmt.Sprintf("r%05d", i)
	if i%7 == 0 {
		k += strings.Repeat("x", 300+i%1500)
	}
	return []byte(k)
}

// entry is one (key, rid) pair read back from a tree.
type entry struct {
	key string
	rid heap.RID
}

// entries lists an iterator's entries in order.
func entries(it *Iterator) []entry {
	var out []entry
	for ; it.Valid(); it.Next() {
		out = append(out, entry{string(it.Key()), it.RID()})
	}
	return out
}

// An in-leaf move keeps the leaf's key count and the tree's shape: no node
// splits or merges, and only the root-to-leaf path changes.
func TestReplaceMovesWithinLeaf(t *testing.T) {
	tr := New()
	for i := 0; i < 1000; i++ {
		if err := tr.Insert(key(2*i), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	leaves := func() int {
		n := 0
		var walk func(*node)
		walk = func(x *node) {
			if x.leaf() {
				n++
			}
			for _, c := range x.children {
				walk(c)
			}
		}
		walk(tr.root)
		return n
	}
	before := leaves()
	// key(501) lies between key(500) and key(502): the same leaf as key(500).
	if err := tr.Replace(key(500), key(501), rid(7)); err != nil {
		t.Fatal(err)
	}
	if got, ok := tr.Get(key(501)); !ok || got != rid(7) {
		t.Fatalf("Get(new) = %v, %v", got, ok)
	}
	if _, ok := tr.Get(key(500)); ok {
		t.Fatal("old key survived Replace")
	}
	// The same key with a new rid: the entry stays, re-pointed.
	if err := tr.Replace(key(501), key(501), rid(9)); err != nil {
		t.Fatal(err)
	}
	if got, _ := tr.Get(key(501)); got != rid(9) {
		t.Fatalf("re-pointed rid = %v", got)
	}
	if tr.Len() != 1000 || leaves() != before {
		t.Fatalf("Len %d, %d leaves (was %d)", tr.Len(), leaves(), before)
	}
	// Across the whole key space: falls back to Delete + Insert.
	if err := tr.Replace(key(0), key(5001), rid(1)); err != nil {
		t.Fatal(err)
	}
	if problems := tr.Validate(); problems != nil {
		t.Fatalf("validate: %v", problems)
	}
}

// A missing old key changes nothing; a colliding new key still removes old.
func TestReplaceErrors(t *testing.T) {
	tr := New()
	for i := 0; i < 200; i++ {
		if err := tr.Insert(key(i), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Replace(key(999), key(1000), rid(1)); err != ErrNotFound {
		t.Fatalf("missing old: %v", err)
	}
	if err := tr.Replace(key(5), key(6), rid(1)); err != ErrDuplicate {
		t.Fatalf("colliding new: %v", err)
	}
	if _, ok := tr.Get(key(5)); ok || tr.Len() != 199 {
		t.Fatalf("old key kept after a collision (Len %d)", tr.Len())
	}
	if got, _ := tr.Get(key(6)); got != rid(6) {
		t.Fatalf("collision overwrote the resident entry: %v", got)
	}
	if err := tr.Replace(key(7), make([]byte, MaxKeySize+1), rid(1)); err != ErrKeyTooLarge {
		t.Fatalf("oversized new: %v", err)
	}
	if _, ok := tr.Get(key(7)); !ok {
		t.Fatal("oversized Replace removed the old key")
	}
	if problems := tr.Validate(); problems != nil {
		t.Fatalf("validate: %v", problems)
	}
}

// A key that grows in place must not take its leaf past the byte budget:
// growing every key of a full leaf splits it, as Delete + Insert would, and
// the tree still serializes into pages.
func TestReplaceRespectsByteBudget(t *testing.T) {
	pool := newTestPool(t, 64)
	tr := NewPaged(pool)
	short := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	for i := 0; i < 60; i++ {
		if err := tr.Insert(short(i), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		long := append(short(i), strings.Repeat("x", 600)...)
		if err := tr.Replace(short(i), long, rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.WritePages(); err != nil {
		t.Fatalf("WritePages after growing keys: %v", err)
	}
	if problems := tr.Validate(); problems != nil {
		t.Fatalf("validate: %v", problems)
	}
}

// A key that shrinks in place must not leave a byte-heavy leaf, already
// below the key-count fill, below the byte fill too while a merge would
// fit: Replace falls back to Delete + Insert, which merges the leaf.
func TestReplaceShrinkKeepsFill(t *testing.T) {
	tr := New()
	long := func(i int) []byte { return []byte(fmt.Sprintf("k%03d%s", i, strings.Repeat("x", 1200))) }
	// Five 1200-byte keys split on bytes into leaves of two and three keys.
	for i := 0; i < 5; i++ {
		if err := tr.Insert(long(i), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		// "k001y" sorts between "k001xx…" and "k002…": the same leaf.
		if err := tr.Replace(long(i), []byte(fmt.Sprintf("k%03dy", i)), rid(i)); err != nil {
			t.Fatal(err)
		}
		if problems := tr.Validate(); problems != nil {
			t.Fatalf("after shrinking key %d: %v", i, problems)
		}
	}
}

// replaceTree is one side of FuzzReplace: a tree, the pool it pages to (nil
// in memory), and the snapshots published from it with the entries each
// held when published.
type replaceTree struct {
	name  string
	tr    *Tree
	pool  *bufpool.Pool
	snaps []*Snapshot
	want  [][]entry
}

// check fails unless the tree validates and, pooled, owns every page id
// exactly once with its pool (by a node, a staged free or a free list).
func (s *replaceTree) check(t *testing.T, step int) {
	t.Helper()
	if problems := s.tr.Validate(); problems != nil {
		t.Fatalf("step %d: %s tree: %v", step, s.name, problems)
	}
	if s.pool == nil {
		return
	}
	if problems := s.pool.CheckOwnership(s.tr.PageIDs()); problems != nil {
		t.Fatalf("step %d: %s tree: page ownership: %v", step, s.name, problems)
	}
}

// checkSnaps fails if a published snapshot no longer reads its entries.
func (s *replaceTree) checkSnaps(t *testing.T) {
	t.Helper()
	for i, sn := range s.snaps {
		if got := entries(sn.Seek(nil, nil)); !slices.Equal(got, s.want[i]) {
			t.Fatalf("%s tree: snapshot %d reads %d entries, held %d when published", s.name, i, len(got), len(s.want[i]))
		}
	}
}

// publish takes a snapshot. A pooled tree is then checkpointed as a store
// does it; with restore it reopens from its root page, so its nodes are lazy
// stubs again, and the superseded tree object's snapshots are checked and
// dropped first.
func (s *replaceTree) publish(t *testing.T, restore bool) {
	t.Helper()
	s.snaps = append(s.snaps, s.tr.Snapshot())
	s.want = append(s.want, entries(s.tr.Seek(nil, nil)))
	if s.pool == nil {
		return
	}
	root, err := s.tr.WritePages()
	if err != nil {
		t.Fatalf("%s tree: WritePages: %v", s.name, err)
	}
	if err := s.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	s.pool.CommitCheckpoint()
	if restore {
		s.checkSnaps(t)
		s.snaps, s.want = nil, nil
		s.tr = Restore(s.pool, root, s.tr.Len())
	}
}

// FuzzReplace holds Replace to Delete + Insert: the same operations go to
// two trees, one moving keys with Replace, the other deleting the old key
// and inserting the new one. After every operation both trees hold the same
// entries, validate, and (pooled) own every page id exactly once; every
// snapshot published along the way still reads what it held. Pooled trees
// are checkpointed and restored mid-run, so Replace also descends through
// lazy stubs.
func FuzzReplace(f *testing.F) {
	f.Add([]byte{0, 10, 20, 1, 2, 3, 0, 200, 5, 4, 4, 4, 7, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{1, 200, 17, 3, 6, 0, 255, 2}, 16))
	for seed := int64(1); seed <= 8; seed++ {
		ops := make([]byte, 160)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, pooled := range []bool{false, true} {
			replaceOps(t, ops[:min(len(ops), 256)], pooled)
		}
	})
}

// replaceOps is FuzzReplace's body for one storage tier. It decodes ops
// four bytes per operation: a kind, then bytes that pick the old and new
// keys — the new one near the old (the in-leaf path) or anywhere.
func replaceOps(t *testing.T, ops []byte, pooled bool) {
	sides := [2]*replaceTree{{name: "replace"}, {name: "delete+insert"}}
	for _, s := range sides {
		s.tr = New()
		if pooled {
			s.pool = newTestPool(t, 32)
			s.tr = NewPaged(s.pool)
		}
		for k := 0; k < 700; k += 3 {
			if err := s.tr.Insert(replaceKey(k), rid(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep, ref := sides[0], sides[1]
	for step := 0; 4*step+4 <= len(ops); step++ {
		o := ops[4*step:]
		op, a, b, c := o[0]%8, int(o[1]), int(o[2]), int(o[3])
		oldIdx := (a<<8 | b) % 760
		newIdx := max(oldIdx+c%9-4, 0)
		if c >= 128 {
			newIdx = (b<<8 | c) % 760
		}
		r := rid(step + 1)
		switch op {
		case 5:
			if got, want := rep.tr.Insert(replaceKey(newIdx), r), ref.tr.Insert(replaceKey(newIdx), r); got != want {
				t.Fatalf("step %d: Insert(%d) = %v and %v", step, newIdx, got, want)
			}
		case 6:
			if got, want := rep.tr.Delete(replaceKey(oldIdx)), ref.tr.Delete(replaceKey(oldIdx)); got != want {
				t.Fatalf("step %d: Delete(%d) = %v and %v", step, oldIdx, got, want)
			}
		case 7:
			for _, s := range sides {
				s.publish(t, c%2 == 0)
			}
		default:
			old, nk := replaceKey(oldIdx), replaceKey(newIdx)
			got := rep.tr.Replace(old, nk, r)
			want := ref.tr.Delete(old)
			if want == nil {
				want = ref.tr.Insert(nk, r)
			}
			if got != want {
				t.Fatalf("step %d: Replace(%d, %d) = %v, Delete+Insert = %v", step, oldIdx, newIdx, got, want)
			}
		}
		got, want := entries(rep.tr.Seek(nil, nil)), entries(ref.tr.Seek(nil, nil))
		if !slices.Equal(got, want) || rep.tr.Len() != ref.tr.Len() {
			t.Fatalf("step %d (op %d): Replace tree holds %d entries, Delete+Insert tree %d", step, op, len(got), len(want))
		}
		rep.check(t, step)
		ref.check(t, step)
	}
	rep.checkSnaps(t)
	ref.checkSnaps(t)
}
