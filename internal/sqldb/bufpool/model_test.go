package bufpool

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"ordxml/internal/sqldb/pagefile"
)

// refRing is the reference second-chance ring the pool's hit/miss sequence
// must equal: cap slots in admission order, one hand, one reference bit per
// page. It knows which pages the test holds pinned or has dirtied, because a
// sweep passes those.
type refRing struct {
	slots  []PageID // 0 = empty
	hand   int
	ref    map[PageID]bool
	pinned map[PageID]int
	dirty  map[PageID]bool
}

func newRefRing(capacity int) *refRing {
	return &refRing{slots: make([]PageID, capacity),
		ref: map[PageID]bool{}, pinned: map[PageID]int{}, dirty: map[PageID]bool{}}
}

// access touches page id and reports whether it was resident. A miss admits
// it under the hand; the writer's sweep may take (and so clean) dirty pages.
func (m *refRing) access(id PageID, writer bool) bool {
	if slices.Contains(m.slots, id) {
		m.ref[id] = true
		return true
	}
	hole := slices.Contains(m.slots, 0)
	for steps := 2 * len(m.slots); steps > 0; steps-- {
		i := m.hand
		m.hand = (i + 1) % len(m.slots)
		if v := m.slots[i]; v != 0 {
			if hole || m.pinned[v] > 0 || (m.dirty[v] && !writer) {
				continue
			}
			if m.ref[v] {
				m.ref[v] = false
				continue
			}
			delete(m.dirty, v)
		}
		m.slots[i], m.ref[id] = id, true
		return false
	}
	panic("model: trace left nothing to evict")
}

func (m *refRing) resident() int64 {
	n := int64(0)
	for _, v := range m.slots {
		if v != 0 {
			n++
		}
	}
	return n
}

// The ways a trace step touches a page.
const (
	opRead  = iota // Frame.Bytes without a pin: the heap's read path
	opFetch        // Fetch + Unpin: the B+tree's read path
	opPin          // Fetch and hold
	opUnpin        // release the oldest hold on the page
	opDirty        // MarkDirty: a writer-side access
	opFlush        // FlushAll: every dirty page becomes clean
	opFree         // FreeID, then Adopt the id again: the slot empties
)

type step struct {
	op int
	id PageID
}

// writtenPages returns a page file holding pages 1..n, each stamped with its
// id, and closed over by no pool: every replay opens a cold pool on it.
func writtenPages(t *testing.T, n int) *pagefile.File {
	t.Helper()
	pf, err := pagefile.Create(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	payload := make([]byte, PayloadSize)
	for id := PageID(1); id <= PageID(n); id++ {
		payload[0] = byte(id)
		if err := pf.WritePage(id, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	return pf
}

// replay runs trace against a cold pool of the given capacity and against
// the reference ring, and fails at the first step whose hit/miss outcome or
// resident count differs.
func replay(t *testing.T, pf *pagefile.File, capacity int, trace []step) {
	t.Helper()
	p := New(pf, capacity)
	m := newRefRing(p.Capacity())
	held := map[PageID][]*Frame{}
	for i, s := range trace {
		before := p.Stats()
		var wantHits, wantMisses int64
		switch s.op {
		case opRead, opFetch, opPin:
			if m.access(s.id, false) {
				wantHits = 1
			} else {
				wantMisses = 1
			}
			f := p.Adopt(s.id)
			var b []byte
			if s.op == opRead {
				b = f.Bytes()
			} else {
				b = f.Pin()
			}
			if b[0] != byte(s.id) {
				t.Fatalf("step %d: page %d payload = %d", i, s.id, b[0])
			}
			switch s.op {
			case opFetch:
				f.Unpin()
			case opPin:
				m.pinned[s.id]++
				held[s.id] = append(held[s.id], f)
			}
		case opUnpin:
			h := held[s.id]
			h[0].Unpin()
			held[s.id] = h[1:]
			m.pinned[s.id]--
		case opDirty:
			// A resident MarkDirty counts neither a hit nor a miss.
			if !m.access(s.id, true) {
				wantMisses = 1
			}
			m.dirty[s.id] = true
			p.Adopt(s.id).MarkDirty()
		case opFlush:
			if err := p.FlushAll(); err != nil {
				t.Fatal(err)
			}
			clear(m.dirty)
		case opFree:
			p.FreeID(s.id)
			if j := slices.Index(m.slots, s.id); j >= 0 {
				m.slots[j] = 0
			}
			delete(m.dirty, s.id)
		}
		after := p.Stats()
		if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != wantHits || misses != wantMisses {
			t.Fatalf("step %d (op %d, page %d): pool counted %d hits / %d misses, the reference ring %d / %d",
				i, s.op, s.id, hits, misses, wantHits, wantMisses)
		}
		// The ring has capacity slots, so this also bounds the pool: the
		// traces always leave an unpinned clean frame, and it never overshoots.
		if after.Resident != m.resident() {
			t.Fatalf("step %d: resident = %d, the reference ring holds %d (capacity %d)",
				i, after.Resident, m.resident(), p.Capacity())
		}
	}
	if n := p.Stats().Overshoots; n != 0 {
		t.Fatalf("%d overshoots on a trace that always leaves a victim", n)
	}
}

// readTrace turns a page sequence into alternating unpinned reads and
// fetch+unpin pairs.
func readTrace(ids []PageID) []step {
	trace := make([]step, len(ids))
	for i, id := range ids {
		trace[i] = step{op: opRead + i%2, id: id}
	}
	return trace
}

func loopIDs(pages, loops int) []PageID {
	var ids []PageID
	for l := 0; l < loops; l++ {
		for id := 1; id <= pages; id++ {
			ids = append(ids, PageID(id))
		}
	}
	return ids
}

// TestPoolMatchesReferenceRing replays seeded traces against the pool and
// the reference ring in lock-step.
func TestPoolMatchesReferenceRing(t *testing.T) {
	const capacity, pages, steps = 16, 64, 4000
	pf := writtenPages(t, pages)
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		uniform := make([]PageID, steps)
		skew := make([]PageID, steps)
		for i := range uniform {
			uniform[i] = PageID(1 + rng.Intn(pages))
			if hot := pages / 5; rng.Intn(100) < 80 {
				skew[i] = PageID(1 + rng.Intn(hot))
			} else {
				skew[i] = PageID(1 + hot + rng.Intn(pages-hot))
			}
		}
		// Reads with holds, writer accesses, flushes and frees mixed in;
		// at most a quarter of the ring is ever pinned or dirty, so every
		// sweep finds a victim.
		var mixed []step
		var holds []PageID
		nDirty := 0
		for len(mixed) < steps {
			id := PageID(1 + rng.Intn(pages))
			switch r := rng.Intn(100); {
			case r < 70:
				mixed = append(mixed, step{opRead + rng.Intn(2), id})
			case r < 78 && len(holds) < capacity/8:
				mixed = append(mixed, step{opPin, id})
				holds = append(holds, id)
			case r < 86 && len(holds) > 0:
				mixed = append(mixed, step{opUnpin, holds[0]})
				holds = holds[1:]
			case r < 93 && nDirty < capacity/8:
				mixed = append(mixed, step{opDirty, id})
				nDirty++
			case r < 96:
				mixed = append(mixed, step{opFlush, 0})
				nDirty = 0
			case r < 100 && !slices.Contains(holds, id):
				mixed = append(mixed, step{opFree, id})
			}
		}
		for _, tr := range []struct {
			name  string
			trace []step
		}{
			{"uniform", readTrace(uniform)},
			{"skew", readTrace(skew)},
			{"loop-in-cap", readTrace(loopIDs(capacity, 20))},
			{"loop-2x-cap", readTrace(loopIDs(2*capacity, 20))},
			{"reads+writers", mixed},
		} {
			t.Run(fmt.Sprintf("%s/seed=%d", tr.name, seed), func(t *testing.T) {
				replay(t, pf, capacity, tr.trace)
			})
		}
	}
}

// writtenPool returns a pool of the given capacity that has allocated,
// written and flushed n pages, as a loaded store leaves it: full of clean
// frames whose reference bits are set. It returns the pages' frames.
func writtenPool(t *testing.T, capacity, n int) (*Pool, []*Frame) {
	t.Helper()
	p := newTestPool(t, capacity)
	frames := make([]*Frame, n)
	for i := range frames {
		f, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		f.MarkDirty()[0] = byte(i)
		f.Unpin()
		frames[i] = f
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	return p, frames
}

// TestRereadAfterFaultHits is the regression test for the pool that cached
// nothing for unpinned readers: the sweep that followed a fault cleared the
// older frames' reference bits, reached the frame just faulted — appended
// behind them with its bit clear — and evicted it, so one page read k times
// in a row cost k page-file reads.
func TestRereadAfterFaultHits(t *testing.T) {
	p, frames := writtenPool(t, 8, 40)
	cold := frames[0] // evicted long ago: 39 allocations followed it
	before := p.Stats()
	for k := 0; k < 4; k++ {
		cold.Bytes()
	}
	after := p.Stats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 3 || misses != 1 {
		t.Fatalf("one page read 4 times: %d hits / %d misses, want 3 / 1", hits, misses)
	}
}

// TestWorkingSetWithinCapacityStaysResident loops over exactly as many cold
// pages as the pool has frames: after the first pass every read must hit.
func TestWorkingSetWithinCapacityStaysResident(t *testing.T) {
	p, frames := writtenPool(t, 8, 40)
	ws := frames[:p.Capacity()]
	for _, f := range ws {
		f.Bytes()
	}
	before := p.Stats()
	const loops = 10
	for loop := 0; loop < loops; loop++ {
		for _, f := range ws {
			f.Bytes()
		}
	}
	after := p.Stats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != int64(loops*len(ws)) || misses != 0 {
		t.Fatalf("looping %d pages in %d frames: %d hits / %d misses, want %d / 0",
			len(ws), p.Capacity(), hits, misses, loops*len(ws))
	}
}
