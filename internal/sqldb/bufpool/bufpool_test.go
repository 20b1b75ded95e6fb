package bufpool

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ordxml/internal/sqldb/pagefile"
)

func newTestPool(t *testing.T, frames int) *Pool {
	t.Helper()
	pf, err := pagefile.Create(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	return New(pf, frames)
}

// evict drops f's payload as a reader's sweep would.
func evict(p *Pool, f *Frame) {
	p.ringMu.Lock()
	p.drop(f, false)
	p.ringMu.Unlock()
}

func TestUnpooledFrame(t *testing.T) {
	f := NewFrame()
	if f.Pooled() {
		t.Fatal("NewFrame reported pooled")
	}
	if f.ID() != 0 {
		t.Fatalf("unpooled frame id = %d", f.ID())
	}
	b := f.Pin()
	if len(b) != PayloadSize {
		t.Fatalf("payload len = %d", len(b))
	}
	copy(b, "hello")
	f.Unpin()
	if got := f.MarkDirty(); !bytes.Equal(got[:5], []byte("hello")) {
		t.Fatal("MarkDirty returned a different buffer")
	}
	if got := f.Bytes(); !bytes.Equal(got[:5], []byte("hello")) {
		t.Fatal("Bytes returned a different buffer")
	}
}

func TestAllocFlushEvictFetchRoundTrip(t *testing.T) {
	p := newTestPool(t, 8)
	f, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	if id == 0 {
		t.Fatal("Alloc handed out page 0")
	}
	b := f.MarkDirty()
	copy(b, "page payload round trip")
	f.Unpin()

	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if d := p.Stats().Dirty; d != 0 {
		t.Fatalf("dirty frames after FlushAll = %d", d)
	}

	// Force the payload out and fault it back via Fetch.
	evict(p, f)
	if f.data.Load() != nil {
		t.Fatal("clean unpinned frame did not evict")
	}
	g := p.Fetch(id)
	got := g.Bytes()
	g.Unpin()
	if !bytes.Equal(got[:23], []byte("page payload round trip")) {
		t.Fatal("payload mismatch after evict+fault")
	}
	if p.Stats().Misses == 0 {
		t.Fatal("fault did not count a miss")
	}
}

func TestResidencyBoundedByCapacity(t *testing.T) {
	p := newTestPool(t, 8)
	// Allocate, fill, and release 50 pages; the pool must keep eviction
	// ahead of allocation so residency stays at (or near) capacity.
	for i := 0; i < 50; i++ {
		f, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		b := f.MarkDirty()
		b[0] = byte(i)
		f.Unpin()
	}
	st := p.Stats()
	// Alloc flushes dirty frames when over capacity, so residency should be
	// bounded; allow one page of slack for the in-flight allocation.
	if st.Resident > int64(p.Capacity())+1 {
		t.Fatalf("resident = %d, capacity = %d", st.Resident, p.Capacity())
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite over-capacity allocation")
	}
	// Every page must still read back intact.
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for id := PageID(1); id <= 50; id++ {
		f := p.Fetch(id)
		b := f.Bytes()
		f.Unpin()
		if b[0] != byte(id-1) {
			t.Fatalf("page %d payload = %d, want %d", id, b[0], id-1)
		}
	}
}

func TestReadersDoNotEvictDirtyOrPinned(t *testing.T) {
	p := newTestPool(t, 8)
	// One clean page on disk and out of the pool, for a reader to fault.
	cold, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	cold.MarkDirty()[0] = 42
	cold.Unpin()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	evict(p, cold)

	var frames []*Frame
	for i := 0; i < 8; i++ {
		f, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f) // keep pinned
	}
	// Every slot holds a pinned dirty frame: a reader's fault must find no
	// victim, serve the read anyway and record the overshoot.
	if b := cold.Bytes(); b[0] != 42 {
		t.Fatalf("cold page payload = %d, want 42", b[0])
	}
	for i, f := range frames {
		if f.data.Load() == nil {
			t.Fatalf("pinned dirty frame %d was evicted", i)
		}
	}
	st := p.Stats()
	if st.Overshoots != 1 || st.Resident != 9 {
		t.Fatalf("overshoots = %d, resident = %d; want 1 and 9", st.Overshoots, st.Resident)
	}
	// Dirty but no longer pinned: still not a reader's to take, and the
	// surplus frame is the first to go once a fault may evict again.
	for _, f := range frames {
		f.Unpin()
	}
	cold.Bytes()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Resident != 8 || cold.data.Load() != nil {
		t.Fatalf("after the flush: resident = %d, surplus frame resident = %v; want 8 and false",
			st.Resident, cold.data.Load() != nil)
	}
}

func TestEnsureDurableCalledBeforeFlush(t *testing.T) {
	p := newTestPool(t, 8)
	lsn := uint64(41)
	p.CurrentLSN = func() uint64 { return lsn }
	var durableThrough []uint64
	p.EnsureDurable = func(l uint64) error {
		durableThrough = append(durableThrough, l)
		return nil
	}
	f, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	f.MarkDirty()
	f.Unpin()
	lsn = 42
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if len(durableThrough) != 1 || durableThrough[0] != 42 {
		t.Fatalf("EnsureDurable calls = %v, want [42]", durableThrough)
	}
	// The flushed page header must carry the same LSN the hook saw.
	h, _, err := p.File().ReadPage(f.ID())
	if err != nil {
		t.Fatal(err)
	}
	if h.LSN != 42 {
		t.Fatalf("flushed page LSN = %d, want 42", h.LSN)
	}
}

// TestFlushAllSkipsFrameFreedMidFlush is the regression test for the
// checkpoint/finalizer race: FlushAll collects a shard's dirty frames, then
// flushes them without the shard lock, and a FreeID in between (a GC
// finalizer in production; the EnsureDurable hook here) drops a collected
// frame's payload. The flush must skip that frame, not fail the checkpoint,
// and the dirty count must come out at exactly zero.
func TestFlushAllSkipsFrameFreedMidFlush(t *testing.T) {
	p := newTestPool(t, 32) // large enough that allocation evicts nothing
	for id := PageID(1); id <= 17; id++ {
		f, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if f.ID() != id {
			t.Fatalf("allocated page %d, want %d", f.ID(), id)
		}
		f.Unpin()
	}
	// Shards flush in index order and frames within a shard in id order:
	// shard 0 holds page 16 alone, then shard 1's pages 1 and 17 are
	// collected together. Free 17 while 1 — the second flush — is on its way
	// to disk.
	flushes := 0
	p.EnsureDurable = func(uint64) error {
		if flushes++; flushes == 2 {
			p.FreeID(17)
		}
		return nil
	}
	if err := p.FlushAll(); err != nil {
		t.Fatalf("FlushAll with a frame freed mid-flush: %v", err)
	}
	if st := p.Stats(); st.Dirty != 0 || st.DirtyFlushes != 16 {
		t.Fatalf("after flush: %d dirty frames, %d flushes; want 0 and 16", st.Dirty, st.DirtyFlushes)
	}
}

func TestFreeIDRoutingAndCheckpointCommit(t *testing.T) {
	p := newTestPool(t, 8)
	a, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	a.Unpin()
	b, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	b.Unpin()

	// Newborn id freed before any checkpoint: immediately reusable.
	p.FreeID(a.ID())
	c, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	c.Unpin()
	if c.ID() != a.ID() {
		t.Fatalf("freed newborn id %d not reused, got %d", a.ID(), c.ID())
	}

	// Checkpoint: b and c become durable.
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	st := p.PlannedState()
	p.CommitCheckpoint()
	if len(st.Free) != 0 {
		t.Fatalf("planned free list = %v, want empty", st.Free)
	}

	// Durable id freed: must go pending, not reusable until the next commit.
	p.FreeID(b.ID())
	d, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	d.Unpin()
	if d.ID() == b.ID() {
		t.Fatal("durable id reused before checkpoint commit")
	}
	// The planned state for the NEXT checkpoint includes b's id as free.
	next := p.PlannedState()
	found := false
	for _, id := range next.Free {
		if id == b.ID() {
			found = true
		}
	}
	if !found {
		t.Fatalf("planned free list %v missing freed durable id %d", next.Free, b.ID())
	}
	p.CommitCheckpoint()
	e, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	e.Unpin()
	if e.ID() != b.ID() {
		t.Fatalf("pending id %d not reusable after commit, got %d", b.ID(), e.ID())
	}
}

func TestRestoreRebuildsDurableSet(t *testing.T) {
	p := newTestPool(t, 8)
	p.Restore(AllocState{Next: 6, Free: []PageID{2, 4}})
	ids := p.DurableIDs()
	want := []PageID{1, 3, 5}
	if len(ids) != len(want) {
		t.Fatalf("durable ids = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("durable ids = %v, want %v", ids, want)
		}
	}
	// Allocation must draw from the free list first, then next.
	a, _ := p.Alloc()
	a.Unpin()
	bF, _ := p.Alloc()
	bF.Unpin()
	cF, _ := p.Alloc()
	cF.Unpin()
	got := []PageID{a.ID(), bF.ID(), cF.ID()}
	seen := map[PageID]bool{}
	for _, id := range got {
		seen[id] = true
	}
	if !seen[2] || !seen[4] || !seen[6] {
		t.Fatalf("allocated ids = %v, want {2,4,6}", got)
	}
}

func TestVerifyDiskDetectsCorruption(t *testing.T) {
	pf, err := pagefile.Create(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	p := New(pf, 8)
	f, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	b := f.MarkDirty()
	copy(b, "verify me")
	f.Unpin()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
	p.CommitCheckpoint()
	if problems := p.VerifyDisk(); len(problems) != 0 {
		t.Fatalf("clean store reported problems: %v", problems)
	}

	// Corrupt the page on disk behind the pool's back.
	raw, err := os.ReadFile(pf.Path())
	if err != nil {
		t.Fatal(err)
	}
	raw[int(f.ID())*pagefile.PageSize+pagefile.HeaderSize] ^= 0xFF
	if err := os.WriteFile(pf.Path(), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if problems := p.VerifyDisk(); len(problems) == 0 {
		t.Fatal("VerifyDisk missed an on-disk corruption")
	}
}

func TestMetricsRegistered(t *testing.T) {
	p := newTestPool(t, 8)
	st := p.Stats()
	if st.Capacity != 8 {
		t.Fatalf("capacity = %d", st.Capacity)
	}
	f, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Pinned; got != 1 {
		t.Fatalf("pinned = %d, want 1", got)
	}
	f.Unpin()
	if got := p.Stats().Pinned; got != 0 {
		t.Fatalf("pinned = %d, want 0", got)
	}
}
