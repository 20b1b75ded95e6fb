package btree

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"ordxml/internal/sqldb/bufpool"
	"ordxml/internal/sqldb/pagefile"
)

func newTestPool(t *testing.T, frames int) *bufpool.Pool {
	t.Helper()
	pf, err := pagefile.Create(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	return bufpool.New(pf, frames)
}

// buildPooled returns a pooled tree holding n entries, written to pages.
func buildPooled(t *testing.T, pool *bufpool.Pool, n int) (*Tree, bufpool.PageID) {
	t.Helper()
	tr := NewPaged(pool)
	for i := 0; i < n; i++ {
		if err := tr.Insert(key(i), rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	root, err := tr.WritePages()
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return tr, root
}

func TestWritePagesRestoreRoundTrip(t *testing.T) {
	pool := newTestPool(t, 16)
	_, root := buildPooled(t, pool, 5000)

	rt := Restore(pool, root, 5000)
	if rt.Len() != 5000 {
		t.Fatalf("Len = %d", rt.Len())
	}
	for i := 0; i < 5000; i += 17 {
		got, ok := rt.Get(key(i))
		if !ok || got != rid(i) {
			t.Fatalf("Get(%s) = %v, %v", key(i), got, ok)
		}
	}
	// Full ordered iteration across lazy faults.
	it := rt.Seek(nil, nil)
	count := 0
	var prev []byte
	for it.Valid() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatal("iteration out of order")
		}
		prev = append(prev[:0], it.Key()...)
		count++
		it.Next()
	}
	if count != 5000 {
		t.Fatalf("iterated %d entries", count)
	}
	if problems := rt.Validate(); problems != nil {
		t.Fatalf("validate: %v", problems)
	}
}

func TestWritePagesIncremental(t *testing.T) {
	pool := newTestPool(t, 64)
	tr, _ := buildPooled(t, pool, 5000)
	flushed := pool.Stats().DirtyFlushes

	// A single mutation rewrites only the root-to-leaf path, not the tree.
	if err := tr.Insert([]byte("zzz-one-more"), rid(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.WritePages(); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	delta := pool.Stats().DirtyFlushes - flushed
	if delta > 8 {
		t.Fatalf("one insert flushed %d pages; want a short path", delta)
	}

	// No mutations: nothing to write at all.
	flushed = pool.Stats().DirtyFlushes
	if _, err := tr.WritePages(); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if delta := pool.Stats().DirtyFlushes - flushed; delta != 0 {
		t.Fatalf("idle WritePages flushed %d pages", delta)
	}
}

func TestRestoredTreeMutationAndSnapshotIsolation(t *testing.T) {
	pool := newTestPool(t, 16)
	_, root := buildPooled(t, pool, 2000)

	rt := Restore(pool, root, 2000)
	snap := rt.Snapshot()
	for i := 0; i < 2000; i += 3 {
		if err := rt.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The snapshot still sees every key; the tree sees the deletes.
	for i := 0; i < 2000; i++ {
		if _, ok := snap.Get(key(i)); !ok {
			t.Fatalf("snapshot lost %s", key(i))
		}
		_, ok := rt.Get(key(i))
		if want := i%3 != 0; ok != want {
			t.Fatalf("tree Get(%s) = %v, want %v", key(i), ok, want)
		}
	}
	if _, err := rt.WritePages(); err != nil {
		t.Fatal(err)
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if problems := rt.Validate(); problems != nil {
		t.Fatalf("validate: %v", problems)
	}
}

func TestByteBudgetSplit(t *testing.T) {
	pool := newTestPool(t, 32)
	tr := NewPaged(pool)
	// Keys big enough that maxKeys of them cannot share a page.
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("%04d-%s", i, strings.Repeat("k", 400)))
		if err := tr.Insert(k, rid(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.WritePages(); err != nil {
		t.Fatal(err)
	}
	if problems := tr.Validate(); problems != nil {
		t.Fatalf("validate: %v", problems)
	}
	if err := tr.Insert(make([]byte, MaxKeySize+1), rid(0)); err != ErrKeyTooLarge {
		t.Fatalf("oversized key: %v", err)
	}
}

// TestReleaseReturnsPages: Release frees every page of a restored tree at
// once, and a snapshot taken before the release still reads every entry —
// from nodes Release decoded, leaves included — after the freed ids have
// been reallocated and overwritten.
func TestReleaseReturnsPages(t *testing.T) {
	pool := newTestPool(t, 16)
	_, root := buildPooled(t, pool, 3000)
	tr := Restore(pool, root, 3000)
	snap := tr.Snapshot()
	owned := len(tr.PageIDs())
	before := pool.PlannedState()

	tr.Release()
	after := pool.PlannedState()
	if got := len(after.Free) - len(before.Free); got != owned {
		t.Fatalf("release freed %d ids, the tree owned %d", got, owned)
	}
	for i := 0; i < owned; i++ {
		fr, err := pool.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		clear(fr.MarkDirty())
		fr.Unpin()
	}
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for it := snap.Seek(nil, nil); it.Valid(); it.Next() {
		n++
	}
	if n != 3000 {
		t.Fatalf("snapshot reads %d entries after release, want 3000", n)
	}
}
