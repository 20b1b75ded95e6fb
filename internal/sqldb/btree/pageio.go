package btree

// Paging support: serializing tree nodes to buffer-pool pages and
// materializing them back lazily.
//
// A pooled tree is shadow-paged. WritePages walks the tree post-order and
// gives every node changed since the last call (pid 0) a freshly allocated
// page; unchanged subtrees keep their pages and are not visited. Pages are
// therefore written exactly once and never updated in place — superseded
// pids queue on Tree.freed and return to the allocator at the next
// WritePages, where the pool's shadow-paging rules keep checkpoint-
// referenced pages intact until the next checkpoint commits; Release frees
// a dropped tree's pids at once.
//
// Restore rebuilds a tree from its root pid alone: nodes start as stubs
// (pid + lazy loader) and materialize from their pages on first touch, so
// opening a store reads nothing and a query faults in only the nodes it
// visits. Materialization runs under a sync.Once per node — concurrent
// snapshot readers race safely, and a node, once loaded, never reloads: by
// the time a page id is freed its node has been materialized (cloning does
// so, and Release materializes the whole tree), so no reader can fault a
// reused page.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"ordxml/internal/sqldb/bufpool"
	"ordxml/internal/sqldb/heap"
)

// Node page layout (within one bufpool.PayloadSize page):
//
//	kind     uint8   1 = leaf, 2 = interior
//	nkeys    uint16
//	keys     nkeys × (klen uint16, key bytes)
//	leaf:     nkeys × (page uint32, slot uint16)      — RIDs, parallel to keys
//	interior: (nkeys+1) × (pid uint32)                — child page ids
const (
	nodeKindLeaf     = 1
	nodeKindInterior = 2
	nodeHeaderBytes  = 3
	ridBytes         = 6
	childPidBytes    = 4
)

// nodeByteBudget is the serialized-size split threshold: half a page, so a
// node split on bytes leaves both halves comfortably below the page size.
const nodeByteBudget = bufpool.PayloadSize / 2

// lazyNode carries what a stub needs to materialize itself.
type lazyNode struct {
	once sync.Once
	pool *bufpool.Pool
}

// ensure materializes a stub node from its page; a no-op for nodes built in
// memory. Safe to call concurrently from snapshot readers.
func (n *node) ensure() {
	if n.lazy == nil {
		return
	}
	n.lazy.once.Do(n.materialize)
}

// materialize loads and decodes the node's page. Fail stop on unreadable or
// malformed pages, mirroring the pool's fault policy: the page was written
// and checksummed by us, so an undecodable image is storage corruption.
func (n *node) materialize() {
	pool := n.lazy.pool
	fr := pool.Fetch(n.pid)
	b := fr.Bytes()
	defer fr.Unpin()
	kind := b[0]
	nkeys := int(binary.LittleEndian.Uint16(b[1:3]))
	off := nodeHeaderBytes
	keys := make([][]byte, nkeys)
	for i := 0; i < nkeys; i++ {
		klen := int(binary.LittleEndian.Uint16(b[off : off+2]))
		off += 2
		// Keys alias the page payload: evicted buffers are dropped, never
		// recycled, so the slices stay valid for the node's lifetime.
		keys[i] = b[off : off+klen : off+klen]
		off += klen
	}
	switch kind {
	case nodeKindLeaf:
		rids := make([]heap.RID, nkeys)
		for i := 0; i < nkeys; i++ {
			rids[i] = heap.RID{
				Page: binary.LittleEndian.Uint32(b[off : off+4]),
				Slot: binary.LittleEndian.Uint16(b[off+4 : off+6]),
			}
			off += ridBytes
		}
		n.rids = rids
		n.keys = keys
	case nodeKindInterior:
		children := make([]*node, nkeys+1)
		for i := range children {
			pid := bufpool.PageID(binary.LittleEndian.Uint32(b[off : off+4]))
			off += childPidBytes
			children[i] = &node{pid: pid, lazy: &lazyNode{pool: pool}}
		}
		n.keys = keys
		n.children = children
	default:
		panic(fmt.Sprintf("btree: page %d has unknown node kind %d", n.pid, kind))
	}
}

// mergedNodeBytes returns the serialized size of the node that merging
// children li and li+1 of n would produce: both nodes' bytes sharing one
// header, plus the pulled-down separator when they are interior. Both
// children must be materialized.
func mergedNodeBytes(n *node, li int) int {
	sz := nodeBytes(n.children[li]) + nodeBytes(n.children[li+1]) - nodeHeaderBytes
	if !n.children[li].leaf() {
		sz += 2 + len(n.keys[li]) // the separator joins the merged node's keys
	}
	return sz
}

// nodeBytes returns the node's serialized size.
func nodeBytes(n *node) int {
	sz := nodeHeaderBytes
	for _, k := range n.keys {
		sz += 2 + len(k)
	}
	if n.leaf() {
		sz += ridBytes * len(n.rids)
	} else {
		sz += childPidBytes * len(n.children)
	}
	return sz
}

// encodeNode serializes a materialized node into a page payload. Interior
// children are referenced by the already-assigned pids in childPids.
func encodeNode(b []byte, n *node, childPids []bufpool.PageID) {
	if n.leaf() {
		b[0] = nodeKindLeaf
	} else {
		b[0] = nodeKindInterior
	}
	binary.LittleEndian.PutUint16(b[1:3], uint16(len(n.keys)))
	off := nodeHeaderBytes
	for _, k := range n.keys {
		binary.LittleEndian.PutUint16(b[off:off+2], uint16(len(k)))
		off += 2
		copy(b[off:], k)
		off += len(k)
	}
	if n.leaf() {
		for _, r := range n.rids {
			binary.LittleEndian.PutUint32(b[off:off+4], r.Page)
			binary.LittleEndian.PutUint16(b[off+4:off+6], r.Slot)
			off += ridBytes
		}
	} else {
		for _, pid := range childPids {
			binary.LittleEndian.PutUint32(b[off:off+4], uint32(pid))
			off += childPidBytes
		}
	}
}

// NewPaged returns an empty tree that pages itself to pool.
func NewPaged(pool *bufpool.Pool) *Tree {
	t := New()
	t.pool = pool
	return t
}

// WritePages serializes every node changed since the last call to fresh
// pool pages and returns the root's page id. Unchanged subtrees are not
// visited. Superseded page ids collected by copy-on-write are released to
// the allocator. Writer side only; the caller flushes and syncs the pool
// afterwards (the checkpoint does both).
func (t *Tree) WritePages() (bufpool.PageID, error) {
	if t.pool == nil {
		return 0, errors.New("btree: WritePages on an unpooled tree")
	}
	// Freeze the tree first: a published snapshot means every node is
	// immutable, so the images written here cannot go stale before the
	// flush. (Snapshot is cached — this is free when already frozen.)
	t.Snapshot()
	if _, err := t.writeNode(t.root); err != nil {
		return 0, err
	}
	for _, pid := range t.freed {
		t.pool.FreeID(pid)
	}
	t.freed = t.freed[:0]
	return t.root.pid, nil
}

// writeNode assigns pages post-order so children have pids before their
// parent serializes. Nodes with a pid are unchanged and keep their page;
// stubs always carry a pid, so recursion never materializes anything.
func (t *Tree) writeNode(n *node) (bufpool.PageID, error) {
	if n.pid != 0 {
		return n.pid, nil
	}
	var childPids []bufpool.PageID
	if !n.leaf() {
		childPids = make([]bufpool.PageID, len(n.children))
		for i, c := range n.children {
			pid, err := t.writeNode(c)
			if err != nil {
				return 0, err
			}
			childPids[i] = pid
		}
	}
	if sz := nodeBytes(n); sz > bufpool.PayloadSize {
		return 0, fmt.Errorf("btree: node serializes to %d bytes, above the %d-byte page", sz, bufpool.PayloadSize)
	}
	fr, err := t.pool.Alloc()
	if err != nil {
		return 0, err
	}
	encodeNode(fr.MarkDirty(), n, childPids)
	n.pid = fr.ID()
	fr.Unpin()
	return n.pid, nil
}

// Restore rebuilds a pooled tree from a checkpoint manifest: the root page
// id and entry count. No I/O happens here — the root is a stub and the tree
// materializes lazily as queries touch it. The tree starts at epoch 1 with
// every node frozen (stamp 0), so the first mutation copies nodes to fresh
// pages, preserving the checkpoint's on-disk image.
func Restore(pool *bufpool.Pool, rootPid bufpool.PageID, size int) *Tree {
	return &Tree{
		pool:  pool,
		size:  size,
		epoch: 1,
		root:  &node{pid: rootPid, lazy: &lazyNode{pool: pool}},
	}
}

// AdoptFrom makes t pooled with old's pool and releases all of old's pages.
// Used when the catalog replaces a tree wholesale — CREATE INDEX backfill,
// bulk load into an empty table — so the superseded tree's pages do not
// leak.
func (t *Tree) AdoptFrom(old *Tree) {
	if old == nil || old.pool == nil {
		return
	}
	t.pool = old.pool
	old.Release()
}

// Release returns every page the tree owns to the allocator now. PageIDs
// materializes every node first, leaves included, so a snapshot still
// reading the tree never faults an id the allocator may reuse; a drop reads
// the whole tree. The tree must not be mutated afterwards.
func (t *Tree) Release() {
	if t.pool == nil {
		return
	}
	for _, pid := range t.PageIDs() {
		t.pool.FreeID(pid)
	}
	t.freed, t.pendingFree = nil, nil
}

// PageIDs returns every page id the tree owns: the page of each written
// node, materializing the whole tree, and the superseded pids staged for
// release at the next WritePages. Writer side only.
func (t *Tree) PageIDs() []bufpool.PageID {
	pids := append(append([]bufpool.PageID(nil), t.freed...), t.pendingFree...)
	var walk func(n *node)
	walk = func(n *node) {
		n.ensure()
		if n.pid != 0 {
			pids = append(pids, n.pid)
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return pids
}
