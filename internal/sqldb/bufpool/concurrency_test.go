package bufpool

import (
	"sync"
	"testing"
)

// TestConcurrentFaultAndSweep hammers reader-side faults from many
// goroutines over a pool much smaller than the page set while one goroutine
// plays the writer, allocating and freeing pages. Every path takes the ring
// lock before any shard lock: a fault claims its slot (sweeping, and locking
// each victim's shard to drop it) and releases the ring lock before it locks
// its own shard to read the page; Alloc sweeps the same way; FreeID holds
// the allocator lock, then the ring lock, then the shard. PR 7's first pool
// registered a faulted frame with the sweep while still holding its shard
// lock and deadlocked under this load — one reader held shard S wanting the
// sweep's lock while the sweep held it wanting shard S.
func TestConcurrentFaultAndSweep(t *testing.T) {
	const pages = 64
	p, _ := writtenPool(t, 8, pages)

	// 32 goroutines x 20k fetches reproduces the pre-fix deadlock reliably;
	// short mode keeps a scaled-down version for quick dev loops.
	iters := 20000
	if testing.Short() {
		iters = 2000
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < iters/10; n++ {
			f, err := p.Alloc()
			if err != nil {
				t.Error(err)
				return
			}
			f.Unpin()
			p.FreeID(f.ID())
		}
	}()
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				id := PageID(1 + (seed*2003+n*31)%pages)
				f := p.Fetch(id)
				b := f.Bytes()
				if b[0] != byte(id-1) {
					t.Errorf("page %d payload = %d, want %d", id, b[0], id-1)
				}
				f.Unpin()
			}
		}(g)
	}
	wg.Wait()

	st := p.Stats()
	if st.Evictions == 0 {
		t.Fatal("thrashing a pool 8x smaller than the page set evicted nothing")
	}
	// With 32 readers pinning, faults that found all 8 frames pinned put
	// theirs on the surplus list; nothing is pinned now, so the next fault
	// (or flush) drops them and the pool settles back under capacity.
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if st = p.Stats(); st.Resident > int64(p.Capacity()) || st.Pinned != 0 {
		t.Fatalf("resident = %d (capacity %d), pinned = %d after the flush", st.Resident, p.Capacity(), st.Pinned)
	}
}

// TestConcurrentUnpinnedFaults mixes the heap's unpinned read path
// (Frame.Bytes) with Fetch/Unpin over a pool 8x smaller than the page set.
// Two readers can be inside one page's fault at once; if the second did not
// hold the frame's slot across its read, a sweep between the first reader's
// store and the second's could evict the frame and the second would then
// store a payload in a frame that has no slot — resident forever, invisible
// to the hand. Every resident frame must own a slot (or a surplus entry) and
// the pool must be back under capacity once nothing is pinned.
func TestConcurrentUnpinnedFaults(t *testing.T) {
	const pages = 64
	p, frames := writtenPool(t, 8, pages)

	iters := 20000
	if testing.Short() {
		iters = 2000
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				i := (seed*2003 + n*31) % pages
				f := frames[i]
				var b []byte
				if (n+seed)%4 == 0 {
					b = f.Pin()
					f.Unpin()
				} else {
					b = f.Bytes()
				}
				if b[0] != byte(i) {
					t.Errorf("page %d payload = %d, want %d", f.ID(), b[0], i)
				}
			}
		}(g)
	}
	wg.Wait()

	p.ringMu.Lock()
	for _, f := range frames {
		if f.data.Load() != nil && f.slot == 0 {
			t.Errorf("page %d is resident but holds no ring slot", f.ID())
		}
	}
	p.ringMu.Unlock()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Resident > int64(p.Capacity()) || st.Pinned != 0 {
		t.Fatalf("resident = %d (capacity %d), pinned = %d after the flush", st.Resident, p.Capacity(), st.Pinned)
	}
}
