// Package heap implements slotted-page heap storage for table rows. Rows are
// stored as opaque byte strings (the engine encodes them with the sqltypes
// row codec) addressed by record ids (RIDs). Pages follow the classic slotted
// layout: a slot directory growing forward from the header and row payloads
// growing backward from the end of the page.
//
// Page memory lives in buffer-pool frames (internal/sqldb/bufpool), and
// every page is one frame payload (bufpool.PayloadSize bytes) in either
// mode, so both cap rows at MaxRowSize. In the default in-RAM mode every
// page owns an unpooled frame that is resident forever. In paged mode
// (NewPaged) frames belong to a fixed-capacity pool over a page file: cold
// pages fault in on access and clean pages are evicted under memory
// pressure, so a heap can exceed RAM. Logical page numbers (RID.Page) are
// positions in the heap's page table; the frame knows its physical page-file
// id, and the mapping is persisted by the checkpoint manifest. The writer
// frees an id when it supersedes the page; snapshots keep the frame's bytes.
package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"ordxml/internal/sqldb/bufpool"
)

const (
	headerSize = 6 // numSlots(2) freeStart(2) freeEnd(2)
	slotSize   = 4 // offset(2) length(2)
)

// MaxRowSize is the largest payload a single page can hold.
const MaxRowSize = bufpool.PayloadSize - headerSize - slotSize

// RID addresses a record: page number and slot within the page.
type RID struct {
	Page uint32
	Slot uint16
}

// String renders the RID for debugging.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// Less orders RIDs by page, then slot.
func (r RID) Less(o RID) bool {
	if r.Page != o.Page {
		return r.Page < o.Page
	}
	return r.Slot < o.Slot
}

// ErrRowTooLarge is returned when a payload exceeds MaxRowSize.
var ErrRowTooLarge = errors.New("heap: row larger than page")

// ErrNotFound is returned for RIDs that do not address a live record.
var ErrNotFound = errors.New("heap: record not found")

// page pairs a buffer-pool frame with the copy-on-write stamp the heap uses
// for snapshot isolation. The slotted layout lives in the frame's payload.
type page struct {
	fr *bufpool.Frame
	// stamp is the heap epoch the page was allocated or cloned in. Pages
	// stamped before the current epoch may be referenced by a published
	// Snapshot and must be cloned (copy-on-write) before mutation.
	stamp uint64
}

// bytes returns the page's payload for reading, faulting it in if evicted.
// The returned slice stays valid even if the frame is evicted afterwards
// (evicted buffers are dropped, never recycled).
func (p *page) bytes() []byte { return p.fr.Bytes() }

// dirty returns the page's payload for writing, marking the frame dirty so
// the pool will not drop it before flushing. Writer side only.
func (p *page) dirty() []byte { return p.fr.MarkDirty() }

// Slotted-page helpers operate on a raw payload buffer so they serve both
// the heap's resident pages and diagnostic tools reading raw page images.

func initPage(b []byte) {
	setNumSlots(b, 0)
	setFreeStart(b, headerSize)
	setFreeEnd(b, len(b))
}

func numSlots(b []byte) int        { return int(binary.LittleEndian.Uint16(b[0:2])) }
func setNumSlots(b []byte, n int)  { binary.LittleEndian.PutUint16(b[0:2], uint16(n)) }
func freeStart(b []byte) int       { return int(binary.LittleEndian.Uint16(b[2:4])) }
func setFreeStart(b []byte, n int) { binary.LittleEndian.PutUint16(b[2:4], uint16(n)) }
func freeEnd(b []byte) int         { return int(binary.LittleEndian.Uint16(b[4:6])) }
func setFreeEnd(b []byte, n int)   { binary.LittleEndian.PutUint16(b[4:6], uint16(n)) }
func contiguousFree(b []byte) int  { return freeEnd(b) - freeStart(b) }

func slot(b []byte, i int) (off, length int) {
	base := headerSize + i*slotSize
	return int(binary.LittleEndian.Uint16(b[base : base+2])),
		int(binary.LittleEndian.Uint16(b[base+2 : base+4]))
}

func setSlot(b []byte, i, off, length int) {
	base := headerSize + i*slotSize
	binary.LittleEndian.PutUint16(b[base:base+2], uint16(off))
	binary.LittleEndian.PutUint16(b[base+2:base+4], uint16(length))
}

// deadSlot returns the index of a reusable dead slot, or -1.
func deadSlot(b []byte) int {
	for i := 0; i < numSlots(b); i++ {
		if _, l := slot(b, i); l == 0 {
			return i
		}
	}
	return -1
}

// liveBytes returns the total payload bytes referenced by live slots.
func liveBytes(b []byte) int {
	live := 0
	for i := 0; i < numSlots(b); i++ {
		_, l := slot(b, i)
		live += l
	}
	return live
}

// deadBytes returns payload bytes no longer referenced by a live slot.
func deadBytes(b []byte) int {
	return (len(b) - freeEnd(b)) - liveBytes(b)
}

// compactedFree returns the contiguous free space the page would have after
// compaction, without mutating it.
func compactedFree(b []byte) int {
	return (len(b) - liveBytes(b)) - freeStart(b)
}

// pageFits reports whether data would fit in the page (directly or after
// compaction) without mutating it, so callers can probe a possibly
// snapshot-shared page before paying for a copy-on-write clone.
func pageFits(b []byte, data []byte) bool {
	need := len(data)
	if deadSlot(b) == -1 {
		need += slotSize
	}
	if contiguousFree(b) >= need {
		return true
	}
	return deadBytes(b) > 0 && compactedFree(b) >= need
}

// pageInsert places data in the page, reusing a dead slot when one exists.
// It reports the slot used and whether the insert fit.
func pageInsert(b []byte, data []byte) (int, bool) {
	si := deadSlot(b)
	need := len(data)
	if si == -1 {
		need += slotSize
	}
	if contiguousFree(b) < need {
		if deadBytes(b) > 0 && compactedFree(b) >= need {
			compact(b)
		} else {
			return 0, false
		}
	}
	if si == -1 {
		si = numSlots(b)
		setNumSlots(b, si+1)
		setFreeStart(b, freeStart(b)+slotSize)
	}
	off := freeEnd(b) - len(data)
	copy(b[off:], data)
	setFreeEnd(b, off)
	setSlot(b, si, off, len(data))
	return si, true
}

// compact rewrites live payloads to the end of the page, reclaiming dead
// space. Slot numbers (and therefore RIDs) are preserved.
func compact(b []byte) {
	type rec struct {
		slot int
		data []byte
	}
	var recs []rec
	for i := 0; i < numSlots(b); i++ {
		off, l := slot(b, i)
		if l == 0 {
			continue
		}
		d := make([]byte, l)
		copy(d, b[off:off+l])
		recs = append(recs, rec{i, d})
	}
	end := len(b)
	for _, r := range recs {
		end -= len(r.data)
		copy(b[end:], r.data)
		setSlot(b, r.slot, end, len(r.data))
	}
	setFreeEnd(b, end)
}

// appendRecord places data in a fresh slot at the end of the directory.
// The caller guarantees the payload plus a new slot fit the page.
func appendRecord(b []byte, data []byte) int {
	si := numSlots(b)
	setNumSlots(b, si+1)
	setFreeStart(b, freeStart(b)+slotSize)
	off := freeEnd(b) - len(data)
	copy(b[off:], data)
	setFreeEnd(b, off)
	setSlot(b, si, off, len(data))
	return si
}

// Heap is an append-friendly collection of slotted pages. Mutations are
// copy-on-write against the most recently published Snapshot: pages stamped
// in an earlier epoch are cloned before being written, so a Snapshot stays
// immutable for as long as any reader holds it.
type Heap struct {
	// pool backs paged heaps; nil means in-RAM mode (unpooled frames).
	pool     *bufpool.Pool
	pages    []*page
	rowCount int
	// insertHint is the page most recently found to have space; inserts try
	// it first so bulk loads stay O(1) per row.
	insertHint int
	// epoch advances each time a Snapshot is published; pages stamped before
	// the current epoch are frozen and cloned on write.
	epoch uint64
	// snap caches the last published Snapshot; mutations invalidate it, so
	// snapshotting an unchanged heap costs one pointer load.
	snap *Snapshot
	// PageReads, when set, is incremented once per page accessed by reads
	// (Get and Scan). The catalog points it at a shared engine counter; the
	// nil check keeps the package dependency-free.
	PageReads *atomic.Int64
}

// New returns an empty in-RAM heap.
func New() *Heap { return &Heap{} }

// NewPaged returns an empty heap whose pages live in pool frames over the
// pool's page file, so the heap can exceed RAM.
func NewPaged(pool *bufpool.Pool) *Heap { return &Heap{pool: pool} }

// newPage allocates a fresh initialized page stamped with the current epoch.
func (h *Heap) newPage() (*page, error) {
	if h.pool == nil {
		fr := bufpool.NewFrame()
		initPage(fr.MarkDirty())
		return &page{fr: fr, stamp: h.epoch}, nil
	}
	fr, err := h.pool.Alloc()
	if err != nil {
		return nil, err
	}
	initPage(fr.MarkDirty())
	fr.Unpin()
	return &page{fr: fr, stamp: h.epoch}, nil
}

// writable returns page pi ready for mutation, cloning it first if it is
// frozen in an earlier epoch (and therefore possibly shared with a published
// Snapshot). The clone gets a fresh frame (and, in paged mode, a fresh
// physical page id — shadow paging). The old frame stays pinned across the
// copy and the free, so it is detached resident and its snapshots read memory.
func (h *Heap) writable(pi int) (*page, error) {
	p := h.pages[pi]
	if p.stamp == h.epoch {
		return p, nil
	}
	old := p.fr.Pin()
	defer p.fr.Unpin()
	np, err := h.newPage()
	if err != nil {
		return nil, err
	}
	copy(np.dirty(), old)
	h.pages[pi] = np
	if h.pool != nil {
		h.pool.FreeID(p.fr.ID())
	}
	return np, nil
}

// Release frees every page of a dropped heap, each pinned (so detached
// resident, like writable's) for snapshots still reading it.
func (h *Heap) Release() {
	if h.pool == nil {
		return
	}
	for _, p := range h.pages {
		p.fr.Pin()
		h.pool.FreeID(p.fr.ID())
		p.fr.Unpin()
	}
}

// Insert stores data and returns its RID.
func (h *Heap) Insert(data []byte) (RID, error) {
	if len(data) > MaxRowSize {
		return RID{}, fmt.Errorf("%w: %d bytes", ErrRowTooLarge, len(data))
	}
	h.snap = nil
	// Probe fit read-only before cloning: a full page must not trigger a
	// wasted copy-on-write of a whole page.
	tryPage := func(pi int) (int, bool, error) {
		if !pageFits(h.pages[pi].bytes(), data) {
			return 0, false, nil
		}
		p, err := h.writable(pi)
		if err != nil {
			return 0, false, err
		}
		si, ok := pageInsert(p.dirty(), data)
		return si, ok, nil
	}
	if h.insertHint < len(h.pages) {
		slot, ok, err := tryPage(h.insertHint)
		if err != nil {
			return RID{}, err
		}
		if ok {
			h.rowCount++
			return RID{Page: uint32(h.insertHint), Slot: uint16(slot)}, nil
		}
	}
	// Try the last page, then allocate.
	if n := len(h.pages); n > 0 && n-1 != h.insertHint {
		slot, ok, err := tryPage(n - 1)
		if err != nil {
			return RID{}, err
		}
		if ok {
			h.insertHint = n - 1
			h.rowCount++
			return RID{Page: uint32(n - 1), Slot: uint16(slot)}, nil
		}
	}
	p, err := h.newPage()
	if err != nil {
		return RID{}, err
	}
	h.pages = append(h.pages, p)
	h.insertHint = len(h.pages) - 1
	slot, ok := pageInsert(p.dirty(), data)
	if !ok {
		return RID{}, fmt.Errorf("%w: %d bytes", ErrRowTooLarge, len(data))
	}
	h.rowCount++
	return RID{Page: uint32(len(h.pages) - 1), Slot: uint16(slot)}, nil
}

// AppendBatch stores every payload in order and returns one RID per payload.
// It is the bulk-load fast path: records are appended to the tail page (no
// dead-slot search, no compaction probing), and a new page is allocated the
// moment one does not fit. All payloads are validated before any is stored,
// so an error means the heap is unchanged (page allocation failures in paged
// mode can leave a fresh empty tail page, which is harmless).
func (h *Heap) AppendBatch(payloads [][]byte) ([]RID, error) {
	for _, d := range payloads {
		if len(d) > MaxRowSize {
			return nil, fmt.Errorf("%w: %d bytes", ErrRowTooLarge, len(d))
		}
	}
	h.snap = nil
	rids := make([]RID, 0, len(payloads))
	var p *page
	pi := len(h.pages) - 1
	if pi >= 0 {
		p = h.pages[pi]
	}
	for _, d := range payloads {
		if p == nil || contiguousFree(p.bytes()) < len(d)+slotSize {
			np, err := h.newPage()
			if err != nil {
				return nil, err
			}
			p = np
			h.pages = append(h.pages, p)
			pi = len(h.pages) - 1
		} else if p.stamp != h.epoch {
			wp, err := h.writable(pi)
			if err != nil {
				return nil, err
			}
			p = wp
		}
		slot := appendRecord(p.dirty(), d)
		rids = append(rids, RID{Page: uint32(pi), Slot: uint16(slot)})
		h.rowCount++
	}
	return rids, nil
}

// Get returns the payload stored at rid. The returned slice aliases page
// memory and is only valid until the next mutation; callers that retain it
// must copy.
func (h *Heap) Get(rid RID) ([]byte, error) {
	b, off, l, err := locate(h.pages, rid)
	if err != nil {
		return nil, err
	}
	if h.PageReads != nil {
		h.PageReads.Add(1)
	}
	return b[off : off+l], nil
}

// Delete removes the record at rid.
func (h *Heap) Delete(rid RID) error {
	if _, _, _, err := locate(h.pages, rid); err != nil {
		return err
	}
	h.snap = nil
	p, err := h.writable(int(rid.Page))
	if err != nil {
		return err
	}
	setSlot(p.dirty(), int(rid.Slot), 0, 0)
	h.rowCount--
	if int(rid.Page) < h.insertHint {
		h.insertHint = int(rid.Page)
	}
	return nil
}

// Update replaces the payload at rid. When the new payload fits the page it
// stays in place and the same RID remains valid; otherwise the record moves
// and the new RID is returned. Callers must use the returned RID.
func (h *Heap) Update(rid RID, data []byte) (RID, error) {
	if len(data) > MaxRowSize {
		return RID{}, fmt.Errorf("%w: %d bytes", ErrRowTooLarge, len(data))
	}
	_, _, l, err := locate(h.pages, rid)
	if err != nil {
		return RID{}, err
	}
	h.snap = nil
	p, err := h.writable(int(rid.Page))
	if err != nil {
		return RID{}, err
	}
	b := p.dirty()
	off, _ := slot(b, int(rid.Slot))
	if len(data) <= l {
		copy(b[off:], data)
		setSlot(b, int(rid.Slot), off, len(data))
		return rid, nil
	}
	// Try to keep it on the same page (slot reuse preserves the RID only if
	// insert happens to pick this slot; simplest correct behaviour: delete
	// then insert, possibly on the same page).
	setSlot(b, int(rid.Slot), 0, 0)
	if slot, ok := pageInsert(b, data); ok {
		return RID{Page: rid.Page, Slot: uint16(slot)}, nil
	}
	h.rowCount--
	return h.Insert(data)
}

func locate(pages []*page, rid RID) ([]byte, int, int, error) {
	if int(rid.Page) >= len(pages) {
		return nil, 0, 0, fmt.Errorf("%w: %s", ErrNotFound, rid)
	}
	b := pages[rid.Page].bytes()
	if int(rid.Slot) >= numSlots(b) {
		return nil, 0, 0, fmt.Errorf("%w: %s", ErrNotFound, rid)
	}
	off, l := slot(b, int(rid.Slot))
	if l == 0 {
		return nil, 0, 0, fmt.Errorf("%w: %s", ErrNotFound, rid)
	}
	return b, off, l, nil
}

// Scan calls fn for every live record in RID order. The payload slice aliases
// page memory; fn must not retain it. Scanning stops when fn returns false.
func (h *Heap) Scan(fn func(rid RID, data []byte) bool) {
	scanPages(h.pages, h.PageReads, fn)
}

func scanPages(pages []*page, reads *atomic.Int64, fn func(rid RID, data []byte) bool) {
	for pi, p := range pages {
		b := p.bytes()
		if reads != nil {
			reads.Add(1)
		}
		for si := 0; si < numSlots(b); si++ {
			off, l := slot(b, si)
			if l == 0 {
				continue
			}
			if !fn(RID{Page: uint32(pi), Slot: uint16(si)}, b[off:off+l]) {
				return
			}
		}
	}
}

// Stats describes heap occupancy.
type Stats struct {
	Pages     int
	Rows      int
	LiveBytes int
}

// Stats returns occupancy counters.
func (h *Heap) Stats() Stats {
	return pageStats(h.pages, h.rowCount)
}

func pageStats(pages []*page, rows int) Stats {
	s := Stats{Pages: len(pages), Rows: rows}
	for _, p := range pages {
		s.LiveBytes += liveBytes(p.bytes())
	}
	return s
}

// PageIDs returns the physical page-file id of every page in logical order,
// for the checkpoint manifest. Zero ids (unpooled frames) never appear in a
// paged heap.
func (h *Heap) PageIDs() []bufpool.PageID {
	ids := make([]bufpool.PageID, len(h.pages))
	for i, p := range h.pages {
		ids[i] = p.fr.ID()
	}
	return ids
}

// RestorePaged rebuilds a paged heap from a checkpoint manifest: ids are the
// physical page-file ids in logical page order, rows the live record count.
// No page I/O happens here — payloads fault in on first access. Restored
// pages are frozen (epoch 1, stamp 0) so the first mutation copies them to
// fresh physical pages, preserving the checkpoint's on-disk image.
func RestorePaged(pool *bufpool.Pool, ids []bufpool.PageID, rows int) *Heap {
	h := &Heap{pool: pool, rowCount: rows, epoch: 1}
	h.pages = make([]*page, len(ids))
	for i, id := range ids {
		h.pages[i] = &page{fr: pool.Adopt(id), stamp: 0}
	}
	return h
}

// Snapshot is an immutable point-in-time view of a heap. It shares page
// memory with the heap via copy-on-write: the heap clones any frozen page
// before mutating it, so a Snapshot can be read concurrently, without locks,
// while the heap keeps changing. Old pages' memory is reclaimed by the
// garbage collector once the last Snapshot referencing them is dropped; in
// paged mode their ids went back to the allocator when they were superseded.
type Snapshot struct {
	pages []*page
	rows  int
	reads *atomic.Int64
}

// Snapshot publishes the current contents as an immutable Snapshot and
// advances the copy-on-write epoch. The result is cached: snapshotting an
// unmodified heap returns the same Snapshot without copying anything.
// Snapshot must be called from the writer side (it is not safe to race with
// mutations); the returned Snapshot itself is safe for concurrent use.
func (h *Heap) Snapshot() *Snapshot {
	if h.snap == nil {
		h.epoch++
		h.snap = &Snapshot{
			pages: append([]*page(nil), h.pages...),
			rows:  h.rowCount,
			reads: h.PageReads,
		}
	}
	return h.snap
}

// Unmetered returns a twin of the snapshot whose reads count no page reads.
func (s *Snapshot) Unmetered() *Snapshot {
	c := *s
	c.reads = nil
	return &c
}

// Rows returns the number of live records in the snapshot.
func (s *Snapshot) Rows() int { return s.rows }

// Get returns the payload stored at rid. The returned slice aliases
// immutable snapshot memory and stays valid for the snapshot's lifetime.
func (s *Snapshot) Get(rid RID) ([]byte, error) {
	b, off, l, err := locate(s.pages, rid)
	if err != nil {
		return nil, err
	}
	if s.reads != nil {
		s.reads.Add(1)
	}
	return b[off : off+l], nil
}

// Scan calls fn for every live record in RID order, like Heap.Scan.
func (s *Snapshot) Scan(fn func(rid RID, data []byte) bool) {
	scanPages(s.pages, s.reads, fn)
}

// Stats returns occupancy counters for the snapshot.
func (s *Snapshot) Stats() Stats {
	return pageStats(s.pages, s.rows)
}

// Iter is a pull iterator over a snapshot's live records in RID order.
type Iter struct {
	pages []*page
	pi    int // current page
	si    int // next slot on the current page
	reads *atomic.Int64
}

// Iter returns a pull iterator over every live record.
func (s *Snapshot) Iter() *Iter {
	it := &Iter{pages: s.pages, reads: s.reads}
	if len(it.pages) > 0 && it.reads != nil {
		it.reads.Add(1)
	}
	return it
}

// Next returns the next live record, or ok=false at the end. The payload
// aliases immutable snapshot memory and stays valid for the snapshot's
// lifetime.
func (it *Iter) Next() (RID, []byte, bool) {
	for it.pi < len(it.pages) {
		b := it.pages[it.pi].bytes()
		for it.si < numSlots(b) {
			si := it.si
			it.si++
			off, l := slot(b, si)
			if l == 0 {
				continue
			}
			return RID{Page: uint32(it.pi), Slot: uint16(si)}, b[off : off+l], true
		}
		it.pi++
		it.si = 0
		if it.pi < len(it.pages) && it.reads != nil {
			it.reads.Add(1)
		}
	}
	return RID{}, nil, false
}
