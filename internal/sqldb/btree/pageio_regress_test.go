package btree

import (
	"fmt"
	"strings"
	"testing"
)

// TestFailedMutationDoesNotFreeLivePages covers the shadow-paging hazard of
// a mutation that fails mid-descent against a frozen (checkpointed) tree:
// writableChild stages the pids of the nodes it clones, but installRoot
// never runs, so t.root keeps referencing the originals. Those pids must
// not reach the freed list — the next WritePages would hand
// checkpoint-referenced pages back to the allocator for reuse, silently
// corrupting the durable tree.
func TestFailedMutationDoesNotFreeLivePages(t *testing.T) {
	pool := newTestPool(t, 16)
	tr, root := buildPooled(t, pool, 500) // WritePages freezes the tree
	pool.CommitCheckpoint()

	if err := tr.Insert(key(3), rid(7)); err != ErrDuplicate {
		t.Fatalf("duplicate insert: %v", err)
	}
	if err := tr.Delete([]byte("no-such-key")); err != ErrNotFound {
		t.Fatalf("absent delete: %v", err)
	}
	if n := len(tr.freed) + len(tr.pendingFree); n != 0 {
		t.Fatalf("failed mutations staged %d page frees", n)
	}
	// WritePages after the failures must release nothing: every page is
	// still referenced by the durable root.
	if _, err := tr.WritePages(); err != nil {
		t.Fatal(err)
	}
	if free := pool.PlannedState().Free; len(free) != 0 {
		t.Fatalf("planned free list %v after failed mutations; durable pages would be reused", free)
	}
	// The durable image still reads back intact, unchanged values included.
	rt := Restore(pool, root, 500)
	for i := 0; i < 500; i++ {
		if got, ok := rt.Get(key(i)); !ok || got != rid(i) {
			t.Fatalf("Get(%s) = %v, %v", key(i), got, ok)
		}
	}
}

// TestDeleteMergeRespectsPageByteBudget drives the delete path over keys
// long enough that byte-budget splits keep every node under minKeys: each
// delete rebalances, and with borrowing impossible the only options are
// merging or leaving the node small. Unchecked merges compound until a node
// no longer serializes into a page and every WritePages (and therefore every
// checkpoint) fails; merges above the byte budget must be skipped instead.
func TestDeleteMergeRespectsPageByteBudget(t *testing.T) {
	pool := newTestPool(t, 64)
	tr := NewPaged(pool)
	longKey := func(i int) []byte {
		return []byte(fmt.Sprintf("%06d-%s", i, strings.Repeat("x", 130)))
	}
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tr.Insert(longKey(i), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.WritePages(); err != nil {
		t.Fatal(err)
	}
	// Mass ascending deletion (keep every 10th key) drives repeated merges.
	for i := 0; i < n; i++ {
		if i%10 == 0 {
			continue
		}
		if err := tr.Delete(longKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.WritePages(); err != nil {
		t.Fatalf("WritePages after merge-heavy deletes: %v", err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if problems := tr.Validate(); problems != nil {
		t.Fatalf("validate: %v", problems)
	}
	for i := 0; i < n; i += 10 {
		if got, ok := tr.Get(longKey(i)); !ok || got != rid(i) {
			t.Fatalf("Get(%d) = %v, %v", i, got, ok)
		}
	}
}

// An interior node over the byte budget whose last separator is the long one
// must not split with that separator promoted and nothing to its right: the
// right half would be an interior node of no keys, which Validate rejects
// when a merge with its neighbour fits.
func TestInteriorByteSplitKeepsRightKey(t *testing.T) {
	keys := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte(strings.Repeat("d", nodeByteBudget))}
	n := &node{keys: keys, children: make([]*node, len(keys)+1)}
	if mid := splitPoint(n); mid < 1 || mid > len(keys)-2 {
		t.Fatalf("splitPoint = %d: a half keeps no key", mid)
	}
}
