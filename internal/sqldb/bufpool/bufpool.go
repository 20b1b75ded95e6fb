// Package bufpool implements a fixed-capacity buffer pool over a page file:
// the layer that lets heap and B+tree storage exceed RAM. Callers hold
// *Frame handles; a frame's payload may or may not be resident. Access
// follows fetch→pin→use→unpin: Pin (or Pool.Fetch/Alloc) returns the
// payload bytes and takes a pin reference, Unpin drops it. The pool keeps at
// most its configured number of frames resident: every resident frame sits
// in one slot of a fixed second-chance ring, and a fault or allocation first
// evicts the frame the ring's hand selects and then takes its slot.
//
// Two properties make lock-free readers (the engine's published storage
// snapshots) safe above this layer:
//
//   - Eviction drops the pool's reference to a payload buffer; it never
//     recycles the memory. A reader that obtained the bytes before the
//     eviction keeps reading valid, immutable memory and the garbage
//     collector reclaims it when the last reference drops — the same
//     lifetime rule the engine already uses for snapshots.
//   - A frame's payload is dropped only when the frame is clean, and a frame
//     becomes clean only after its payload has been fully written to the
//     page file. A fault therefore never observes a torn or stale page: any
//     frame with a nil payload has its exact bytes on disk.
//
// Writes are single-threaded above this package (the engine's writer lock),
// so dirty-page bookkeeping needs no cross-writer coordination: MarkDirty,
// Alloc, FlushAll and the dirty half of eviction run only on the writer
// side. Reader-side faults evict clean frames only.
//
// The pool also owns page-id allocation with shadow-paging semantics: page
// slots referenced by the last durable checkpoint (the "durable set") are
// never handed out again until a later checkpoint commits without them, so
// a crash at any moment leaves the previous checkpoint's pages intact on
// disk. FreeID routes superseded ids to a pending list when they are still
// checkpoint-referenced; CommitCheckpoint drains it.
package bufpool

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ordxml/internal/failpoint"
	"ordxml/internal/obs"
	olog "ordxml/internal/obs/log"
	"ordxml/internal/sqldb/pagefile"
)

// PageID identifies a page slot in the underlying page file.
type PageID = pagefile.PageID

// PayloadSize is the usable byte size of every frame payload.
const PayloadSize = pagefile.PayloadSize

// Failpoints on the flush and eviction paths; the crash-torture harness
// kills the process here to prove recovery copes with partial flushes.
var (
	fpFlush = failpoint.New("bufpool.flush")
	fpEvict = failpoint.New("bufpool.evict")
)

// Frame is the handle to one logical page. Unpooled frames (NewFrame) hold
// their payload forever — the in-RAM mode with zero eviction machinery —
// while pool-backed frames fault their payload in from the page file on
// demand.
type Frame struct {
	pool *Pool  // nil for unpooled in-RAM frames
	id   PageID // 0 for unpooled frames
	// data points at the resident payload, or nil when evicted. The payload
	// buffer is never reused after eviction: readers holding the slice keep
	// valid memory, and faulting allocates a fresh buffer.
	data atomic.Pointer[[]byte]
	pins atomic.Int32
	// dirty marks payload bytes newer than the page file. Set and cleared on
	// the writer side under the frame's shard lock; read by evicting readers.
	dirty atomic.Bool
	// ref is the second-chance bit: set on admission and access, cleared by
	// the ring's hand as it passes.
	ref atomic.Bool
	// slot is the frame's Pool.ring index plus one, 0 while it holds no slot,
	// surplusSlot on Pool.surplus, or freedSlot once detached. Guarded by ringMu.
	slot int32
	// recLSN is the WAL position when the frame was first dirtied since its
	// last flush. Writer-side only.
	recLSN uint64
}

// NewFrame returns an unpooled frame with a zeroed resident payload of
// PayloadSize bytes: the in-RAM storage mode. Pin/Unpin/MarkDirty are cheap
// no-ops beyond the pin count and the payload is never evicted.
func NewFrame() *Frame {
	f := &Frame{}
	b := make([]byte, PayloadSize)
	f.data.Store(&b)
	return f
}

// ID returns the frame's page id (0 for unpooled frames).
func (f *Frame) ID() PageID { return f.id }

// Pin takes a pin reference and returns the payload bytes, faulting them in
// from the page file if evicted. Every Pin must be paired with an Unpin on
// all paths (the ordlint pinpair analyzer enforces this). Faults fail stop:
// an unreadable or corrupt page panics, because it means the store's own
// page file lied to us mid-operation.
func (f *Frame) Pin() []byte {
	f.pins.Add(1)
	if p := f.pool; p != nil {
		p.pinned.Add(1)
	}
	return f.Bytes()
}

// Unpin drops one pin reference.
func (f *Frame) Unpin() {
	f.pins.Add(-1)
	if p := f.pool; p != nil {
		p.pinned.Add(-1)
	}
}

// Bytes returns the payload without pinning, faulting it in if needed. The
// returned slice stays valid (immutable once the frame is frozen by a
// snapshot) even if the frame is evicted afterwards; it just stops being
// the frame's current payload if a writer re-dirties the page.
func (f *Frame) Bytes() []byte {
	if b := f.data.Load(); b != nil {
		if p := f.pool; p != nil {
			p.hits.Add(1)
			// Store only when clear: concurrent readers must not dirty the line per row.
			if !f.ref.Load() {
				f.ref.Store(true)
			}
		}
		return *b
	}
	return *f.pool.fault(f, false)
}

// MarkDirty flags the payload as newer than the page file, faulting it in
// first if needed, and stamps the frame with the current WAL position.
// Writer side only. It returns the payload for the caller to mutate.
func (f *Frame) MarkDirty() []byte {
	p := f.pool
	if p == nil {
		return *f.data.Load()
	}
	sh := p.shard(f.id)
	for {
		sh.mu.Lock()
		if b := f.data.Load(); b != nil {
			if !f.dirty.Load() {
				f.dirty.Store(true)
				p.dirtyCount.Add(1)
				if p.CurrentLSN != nil {
					f.recLSN = p.CurrentLSN()
				}
			}
			f.ref.Store(true)
			sh.mu.Unlock()
			return *b
		}
		sh.mu.Unlock()
		// Fault outside the shard lock (the ring lock comes first) and
		// re-check: a reader's sweep may evict the clean frame in between.
		p.fault(f, true)
	}
}

const surplusSlot, freedSlot = -1, -2 // Frame.slot on Pool.surplus; after FreeID, for good

// shardCount must be a power of two; 16 shards keep concurrent readers'
// scans from serializing on one page-table mutex.
const shardCount = 16

type shard struct {
	mu     sync.Mutex
	frames map[PageID]*Frame
}

// Stats is a point-in-time summary of pool activity.
type Stats struct {
	Hits         int64
	Misses       int64
	Evictions    int64
	DirtyFlushes int64
	Overshoots   int64
	Resident     int64
	Dirty        int64
	Pinned       int64
	Capacity     int
}

// Pool is a fixed-capacity page cache over one page file.
type Pool struct {
	file *pagefile.File
	cap  int

	shards [shardCount]shard

	// ringMu guards the second-chance ring below and every Frame.slot. It is
	// taken after mu and before any shard.mu.
	ringMu  sync.Mutex
	ring    []*Frame // cap slots, nil when empty; every resident frame is in one
	used    int      // occupied slots
	hand    int      // next slot the sweep examines; the newest frame is behind it
	surplus []*Frame // admitted while nothing could be evicted; the first to go

	// mu guards the page-id allocator and checkpoint bookkeeping.
	mu      sync.Mutex
	next    PageID              // next never-used id (1-based; 0 is the file header)
	free    []PageID            // reusable ids not referenced by any checkpoint
	pending []PageID            // durable ids freed since the last checkpoint commit
	durable map[PageID]struct{} // ids referenced by the last durable checkpoint
	newborn map[PageID]struct{} // live ids allocated since the last commit

	// CurrentLSN, when set, supplies the WAL position stamped onto dirtied
	// frames and written into flushed page headers.
	CurrentLSN func() uint64
	// EnsureDurable, when set, is called before a dirty frame's payload is
	// written to the page file, with the WAL position the flush will stamp.
	// It must not return until the log is durable through that position —
	// the WAL-before-data rule.
	EnsureDurable func(lsn uint64) error
	// OnWriteError, when set, is told about every dirty-page flush failure
	// (page-file write or WAL-before-data error), including ones the eviction
	// path swallows and retries. The durable store uses it to enter degraded
	// read-only mode: a page file that cannot take writes means mutations can
	// no longer be made durable, while already-written pages still read fine.
	OnWriteError func(error)

	hits, misses, evictions atomic.Int64
	dirtyFlushes, overshoot atomic.Int64
	resident, dirtyCount    atomic.Int64
	pinned                  atomic.Int64

	// logger reports eviction pressure; set by RegisterMetrics (nil before,
	// and every log call is nil-safe).
	logger atomic.Pointer[olog.Logger]
}

// New returns a pool of at most frames resident pages over file. A frames
// value below 8 is raised to 8: the engine pins a handful of pages inside
// one operation window, and a pool smaller than that could wedge.
func New(file *pagefile.File, frames int) *Pool {
	if frames < 8 {
		frames = 8
	}
	p := &Pool{file: file, cap: frames, ring: make([]*Frame, frames), next: 1,
		durable: map[PageID]struct{}{}, newborn: map[PageID]struct{}{}}
	for i := range p.shards {
		p.shards[i].frames = map[PageID]*Frame{}
	}
	return p
}

// File returns the underlying page file.
func (p *Pool) File() *pagefile.File { return p.file }

// Capacity returns the configured frame capacity.
func (p *Pool) Capacity() int { return p.cap }

func (p *Pool) shard(id PageID) *shard { return &p.shards[id&(shardCount-1)] }

// Alloc assigns a fresh page id and returns its frame, pinned and dirty,
// with a zeroed resident payload. Writer side only. Callers must Unpin.
func (p *Pool) Alloc() (*Frame, error) {
	p.mu.Lock()
	var id PageID
	if n := len(p.free); n > 0 {
		id = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		id = p.next
		p.next++
	}
	p.newborn[id] = struct{}{}
	p.mu.Unlock()

	if err := p.file.EnsureSize(id); err != nil {
		p.mu.Lock()
		delete(p.newborn, id)
		p.free = append(p.free, id)
		p.mu.Unlock()
		return nil, err
	}

	f := &Frame{pool: p, id: id}
	b := make([]byte, PayloadSize)
	f.data.Store(&b)
	f.dirty.Store(true)
	if p.CurrentLSN != nil {
		f.recLSN = p.CurrentLSN()
	}
	f.pins.Store(1)
	p.pinned.Add(1)
	p.dirtyCount.Add(1)

	p.ringMu.Lock()
	p.admit(f, true)
	p.ringMu.Unlock()
	sh := p.shard(id)
	sh.mu.Lock()
	sh.frames[id] = f
	sh.mu.Unlock()
	p.resident.Add(1)
	return f, nil
}

// Fetch returns the frame for an existing page id, pinned with its payload
// resident. Callers must Unpin. Like Pin, faults fail stop on corrupt or
// unreadable pages.
func (p *Pool) Fetch(id PageID) *Frame {
	f := p.Adopt(id)
	f.Pin()
	return f
}

// Adopt returns the frame handle for a page id known to be on disk (from a
// checkpoint manifest), creating the metadata without any I/O. The payload
// faults in on first access.
func (p *Pool) Adopt(id PageID) *Frame {
	sh := p.shard(id)
	sh.mu.Lock()
	f := sh.frames[id]
	if f == nil {
		f = &Frame{pool: p, id: id}
		sh.frames[id] = f
	}
	sh.mu.Unlock()
	return f
}

// fault makes f resident and returns its payload. It claims a ring slot
// first, evicting that slot's frame (readers evict clean frames only), and
// then reads the page under f's shard lock: concurrent faults of one page do
// one read. Each faulter pins f from inside the ring lock until the payload
// is stored, so the slot it saw (its own or an earlier faulter's) cannot be
// swept in between and leave f resident outside the ring. A detached frame
// (freedSlot) takes no slot: it kept its payload, which the faulter returns.
func (p *Pool) fault(f *Frame, writer bool) *[]byte {
	p.ringMu.Lock()
	if f.slot == 0 {
		p.admit(f, writer)
	}
	f.pins.Add(1)
	p.ringMu.Unlock()
	defer f.pins.Add(-1)
	sh := p.shard(f.id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if b := f.data.Load(); b != nil {
		p.hits.Add(1)
		return b
	}
	if sh.frames[f.id] != f {
		// Fail stop: a freed frame keeps its payload, so this handle is stale.
		panic(fmt.Sprintf("bufpool: fault page %d through a freed frame", f.id))
	}
	p.misses.Add(1)
	_, payload, err := p.file.ReadPage(f.id)
	if err != nil {
		// Fail stop: the pool only faults pages it wrote or a verified manifest
		// references, so an unreadable page is corruption (the WAL's policy).
		panic(fmt.Sprintf("bufpool: fault page %d: %v", f.id, err))
	}
	f.data.Store(&payload)
	p.resident.Add(1)
	return &payload
}

// admit puts f, reference bit set, in the first slot the hand can free, and
// leaves the hand just past it: ring order is admission order and f is the
// last frame the hand reaches again. The hand passes pinned frames and, for
// readers, dirty ones; a referenced frame loses its bit and is passed once;
// while an empty slot exists the hand walks to it and disturbs nothing. When
// two revolutions — one may only clear bits — free no slot, f joins the
// surplus list: the pool overshoots, never blocks. Caller holds ringMu.
func (p *Pool) admit(f *Frame, writer bool) {
	p.trimSurplus(writer)
	f.ref.Store(true)
	n := len(p.ring)
	for steps := 2 * n; steps > 0; steps-- {
		i := p.hand
		p.hand = (i + 1) % n
		if v := p.ring[i]; v != nil {
			if p.used < n || !p.evictable(v, writer) || v.ref.Swap(false) || !p.drop(v, writer) {
				continue
			}
		}
		p.ring[i], f.slot = f, int32(i+1)
		p.used++
		return
	}
	f.slot = surplusSlot
	p.surplus = append(p.surplus, f)
	p.overshoot.Add(1)
	// Sustained overshoot: the pinned+dirty working set exceeds capacity.
	p.logger.Load().Every("bufpool.overshoot", 5*time.Second, olog.LevelWarn,
		"bufpool: eviction pressure, no frame to evict, admitting one beyond capacity",
		olog.Int("resident", p.resident.Load()),
		olog.Int("capacity", int64(p.cap)),
		olog.Int("dirty", p.dirtyCount.Load()),
		olog.Int("pinned", p.pinned.Load()))
}

// trimSurplus drops the surplus frames now evictable. Caller holds ringMu.
func (p *Pool) trimSurplus(writer bool) {
	keep := p.surplus[:0]
	for _, f := range p.surplus {
		// A frame whose slot changed was evicted or freed since it was listed.
		if f.slot == surplusSlot && !(p.evictable(f, writer) && p.drop(f, writer)) {
			keep = append(keep, f)
		}
	}
	clear(p.surplus[len(keep):])
	p.surplus = keep
}

// evictable reports whether the sweep may take v: resident (a frame admitted
// but not yet read has no payload), unpinned and, for readers, clean.
func (p *Pool) evictable(v *Frame, writer bool) bool {
	return v.data.Load() != nil && v.pins.Load() == 0 && (writer || !v.dirty.Load())
}

// drop evicts v and empties its slot, the writer flushing v first if dirty.
// A failed flush leaves it dirty and resident (the next checkpoint retries
// and surfaces the error); a frame re-pinned or re-dirtied since evictable
// looked stays too. Caller holds ringMu.
func (p *Pool) drop(v *Frame, writer bool) bool {
	if writer && v.dirty.Load() && p.flushFrame(v) != nil {
		return false
	}
	if fpEvict.Hit() != nil {
		return false
	}
	sh := p.shard(v.id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Under the shard lock a concurrent MarkDirty has either completed (the
	// frame is dirty and stays) or will fault the page back in afterwards.
	if v.pins.Load() > 0 || v.dirty.Load() || v.data.Load() == nil {
		return false
	}
	v.data.Store(nil)
	p.resident.Add(-1)
	p.evictions.Add(1)
	p.clearSlot(v)
	return true
}

// clearSlot takes f out of the ring, or marks its surplus entry stale.
// Caller holds ringMu.
func (p *Pool) clearSlot(f *Frame) {
	if f.slot > 0 {
		p.ring[f.slot-1] = nil
		p.used--
	}
	f.slot = 0
}

// flushFrame writes one dirty frame's payload to the page file and marks it
// clean. Writer side only. The frame stays resident. Callers collect dirty
// frames without holding the shard lock across the write, so a frame freed
// (FreeID → dropFrame) since the caller saw it dirty is skipped, and the
// dirty→clean transition is a swap under the shard lock, so whichever of
// flushFrame and dropFrame gets there first is the one that decrements the
// dirty count.
func (p *Pool) flushFrame(f *Frame) error {
	sh := p.shard(f.id)
	sh.mu.Lock()
	b, dirty := f.data.Load(), f.dirty.Load()
	sh.mu.Unlock()
	if !dirty {
		return nil
	}
	if b == nil {
		return fmt.Errorf("bufpool: dirty frame %d has no payload", f.id)
	}
	lsn := f.recLSN
	if p.CurrentLSN != nil {
		lsn = p.CurrentLSN()
	}
	if p.EnsureDurable != nil {
		if err := p.EnsureDurable(lsn); err != nil {
			return p.writeError(fmt.Errorf("bufpool: wal-before-data for page %d: %w", f.id, err))
		}
	}
	if err := fpFlush.Hit(); err != nil {
		return p.writeError(err)
	}
	if err := p.file.WritePage(f.id, lsn, *b); err != nil {
		return p.writeError(err)
	}
	sh.mu.Lock()
	if f.dirty.Swap(false) {
		p.dirtyCount.Add(-1)
	}
	sh.mu.Unlock()
	p.dirtyFlushes.Add(1)
	return nil
}

// writeError reports a flush failure to OnWriteError and passes it through.
func (p *Pool) writeError(err error) error {
	if p.OnWriteError != nil {
		p.OnWriteError(err)
	}
	return err
}

// FlushAll writes every dirty frame to the page file (WAL-before-data
// enforced per frame) and then drops the surplus frames it made clean.
// Writer side only; it does not sync the file — the checkpoint does that
// once, after all writes.
func (p *Pool) FlushAll() error {
	for si := range p.shards {
		sh := &p.shards[si]
		sh.mu.Lock()
		dirty := make([]*Frame, 0, 8)
		for _, f := range sh.frames {
			if f.dirty.Load() {
				dirty = append(dirty, f)
			}
		}
		sh.mu.Unlock()
		sort.Slice(dirty, func(i, j int) bool { return dirty[i].id < dirty[j].id })
		for _, f := range dirty {
			if err := p.flushFrame(f); err != nil {
				return err
			}
		}
	}
	p.ringMu.Lock()
	p.trimSurplus(true)
	p.ringMu.Unlock()
	return nil
}

// FreeID releases a page id. If the id is referenced by the last durable
// checkpoint it joins the pending list (reusable only after the next
// CommitCheckpoint); otherwise it is immediately reusable. Writer side only;
// the cached frame is detached with its payload, for snapshots still reading.
func (p *Pool) FreeID(id PageID) {
	if id == 0 {
		return
	}
	p.mu.Lock()
	if _, isNew := p.newborn[id]; isNew {
		delete(p.newborn, id)
		p.dropFrame(id)
		p.free = append(p.free, id)
	} else if _, dur := p.durable[id]; dur {
		p.dropFrame(id)
		p.pending = append(p.pending, id)
	} else {
		p.dropFrame(id)
		p.free = append(p.free, id)
	}
	p.mu.Unlock()
}

// dropFrame detaches the cached frame for id from the pool, payload intact.
// Caller holds p.mu; the ring and shard locks nest inside it (never the reverse).
func (p *Pool) dropFrame(id PageID) {
	p.ringMu.Lock()
	defer p.ringMu.Unlock()
	sh := p.shard(id)
	sh.mu.Lock()
	if f, ok := sh.frames[id]; ok {
		delete(sh.frames, id)
		p.clearSlot(f)
		f.slot = freedSlot // a reader already in fault must not re-admit it
		if f.data.Load() != nil {
			p.resident.Add(-1)
		}
		if f.dirty.Swap(false) {
			p.dirtyCount.Add(-1)
		}
	}
	sh.mu.Unlock()
}

// AllocState is the page-id allocator's persistent state, written into
// checkpoint manifests.
type AllocState struct {
	Next PageID
	Free []PageID
}

// PlannedState returns the allocator state as it will be after the next
// CommitCheckpoint: the current free list plus every pending id. The
// checkpoint writes this into the manifest before committing, so the
// manifest and the in-memory allocator agree the moment the rename lands.
func (p *Pool) PlannedState() AllocState {
	p.mu.Lock()
	defer p.mu.Unlock()
	free := make([]PageID, 0, len(p.free)+len(p.pending))
	free = append(free, p.free...)
	free = append(free, p.pending...)
	sort.Slice(free, func(i, j int) bool { return free[i] < free[j] })
	return AllocState{Next: p.next, Free: free}
}

// CommitCheckpoint marks the checkpoint durable: pending ids become
// reusable and ids allocated since the last commit join the durable set.
// Call only after the manifest rename has landed.
func (p *Pool) CommitCheckpoint() {
	p.mu.Lock()
	for _, id := range p.pending {
		delete(p.durable, id)
		p.free = append(p.free, id)
	}
	p.pending = p.pending[:0]
	for id := range p.newborn {
		p.durable[id] = struct{}{}
	}
	clear(p.newborn)
	p.mu.Unlock()
}

// Restore initializes the allocator from a checkpoint manifest: every id
// below next that is not on the free list is durable (checkpoint
// referenced).
func (p *Pool) Restore(st AllocState) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.next = st.Next
	if p.next < 1 {
		p.next = 1
	}
	p.free = append([]PageID(nil), st.Free...)
	p.pending = nil
	p.durable = make(map[PageID]struct{}, int(p.next))
	onFree := make(map[PageID]struct{}, len(st.Free))
	for _, id := range st.Free {
		onFree[id] = struct{}{}
	}
	for id := PageID(1); id < p.next; id++ {
		if _, ok := onFree[id]; !ok {
			p.durable[id] = struct{}{}
		}
	}
	clear(p.newborn)
}

// DurableIDs returns the ids referenced by the last durable checkpoint,
// sorted — the set whose on-disk checksums CheckIntegrity validates.
func (p *Pool) DurableIDs() []PageID {
	p.mu.Lock()
	ids := make([]PageID, 0, len(p.durable))
	for id := range p.durable {
		ids = append(ids, id)
	}
	p.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// VerifyDisk reads every durable page directly from the page file and
// checks its checksum, returning one problem string per bad page. It
// bypasses the cache, so it validates what a post-crash recovery would
// actually read.
func (p *Pool) VerifyDisk() []string {
	var problems []string
	for _, id := range p.DurableIDs() {
		if _, _, err := p.file.ReadPage(id); err != nil {
			problems = append(problems, fmt.Sprintf("pagefile: %v", err))
		}
	}
	return problems
}

// CheckOwnership reports every id in [1, next) not owned exactly once, by
// the storage above (owned) or the pool's free or pending list. The caller
// keeps writers out, so no id is allocated or freed meanwhile.
func (p *Pool) CheckOwnership(owned []PageID) []string {
	owners := map[PageID]int{}
	p.mu.Lock()
	for _, ids := range [][]PageID{owned, p.free, p.pending} {
		for _, id := range ids {
			owners[id]++
		}
	}
	next := p.next
	p.mu.Unlock()
	var problems []string
	for id := PageID(1); id < next && len(problems) < 64; id++ {
		if n := owners[id]; n != 1 {
			problems = append(problems, fmt.Sprintf("bufpool: page %d has %d owners, want 1 (0: leaked)", id, n))
		}
	}
	return problems
}

// Stats returns a point-in-time activity summary.
func (p *Pool) Stats() Stats {
	return Stats{
		Hits:         p.hits.Load(),
		Misses:       p.misses.Load(),
		Evictions:    p.evictions.Load(),
		DirtyFlushes: p.dirtyFlushes.Load(),
		Overshoots:   p.overshoot.Load(),
		Resident:     p.resident.Load(),
		Dirty:        p.dirtyCount.Load(),
		Pinned:       p.pinned.Load(),
		Capacity:     p.cap,
	}
}

// RegisterMetrics publishes the pool's counters and gauges on reg under the
// bufpool.* namespace, including a derived hit-ratio gauge (percent).
func (p *Pool) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterFunc("bufpool.hits", p.hits.Load)
	reg.RegisterFunc("bufpool.misses", p.misses.Load)
	reg.RegisterFunc("bufpool.evictions", p.evictions.Load)
	reg.RegisterFunc("bufpool.dirty_flushes", p.dirtyFlushes.Load)
	reg.RegisterFunc("bufpool.overshoots", p.overshoot.Load)
	reg.RegisterFunc("bufpool.resident_frames", p.resident.Load)
	reg.RegisterFunc("bufpool.dirty_frames", p.dirtyCount.Load)
	reg.RegisterFunc("bufpool.pinned_frames", p.pinned.Load)
	reg.RegisterFunc("bufpool.capacity", func() int64 { return int64(p.cap) })
	reg.RegisterFunc("bufpool.hit_ratio_pct", func() int64 {
		h, m := p.hits.Load(), p.misses.Load()
		if h+m == 0 {
			return 100
		}
		return 100 * h / (h + m)
	})
	reg.RegisterFunc("bufpool.dirty_ratio_pct", func() int64 {
		return 100 * p.dirtyCount.Load() / int64(p.cap)
	})
	p.logger.Store(reg.Log())
}
