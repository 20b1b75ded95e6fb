// Package btree implements a B+tree mapping byte-string keys to heap record
// ids. It is the index structure of the relational engine: keys are produced
// by the order-preserving sqltypes key codec, so lexicographic byte order
// equals SQL value order and every index scan is a byte-range scan. Keys are
// unique; the index layer suffixes non-unique entries with the RID to
// disambiguate.
//
// Mutations are copy-on-write against the most recently published Snapshot:
// every node carries the epoch it was created in, and Insert/Delete/Replace
// clone any node stamped in an earlier epoch before touching it (path
// copying, plus siblings during rebalancing). A Snapshot is therefore an
// immutable root that concurrent readers can traverse without locks while the
// tree keeps changing; superseded nodes are reclaimed by the garbage
// collector once the last Snapshot referencing them is dropped.
//
// Trees are in-RAM by default. A pooled tree (Restore, or AdoptFrom on a
// fresh build) additionally pages itself to a buffer pool: WritePages
// serializes every node changed since the last call to fresh page-file pages
// (shadow paging — existing pages are never overwritten), and restored trees
// start as a single root stub whose nodes materialize lazily from their
// pages on first touch, so a tree larger than the pool faults in only what a
// query actually visits. See pageio.go.
package btree

import (
	"bytes"
	"errors"
	"slices"
	"sync/atomic"

	"ordxml/internal/sqldb/bufpool"
	"ordxml/internal/sqldb/heap"
)

// maxKeys is the fan-out bound: nodes split when they exceed maxKeys keys.
const maxKeys = 64

// minKeys is the underflow bound for rebalancing on delete.
const minKeys = maxKeys / 2

// ErrDuplicate is returned when inserting a key that already exists.
var ErrDuplicate = errors.New("btree: duplicate key")

// ErrNotFound is returned when deleting or fetching an absent key.
var ErrNotFound = errors.New("btree: key not found")

// ErrKeyTooLarge is returned for keys that could not be serialized into a
// single tree page.
var ErrKeyTooLarge = errors.New("btree: key larger than a tree page")

// MaxKeySize is the largest key Insert and BulkLoad accept: one key must fit
// a serialized one-key node (page payload minus node header and per-entry
// overhead, with slack for the interior layout).
const MaxKeySize = bufpool.PayloadSize - 16

type node struct {
	// keys has len <= maxKeys (transiently maxKeys+1 before a split).
	keys [][]byte
	// children is nil for leaves; len(children) == len(keys)+1 otherwise.
	children []*node
	// rids is parallel to keys in leaves.
	rids []heap.RID
	// stamp is the tree epoch the node was created or cloned in. Nodes
	// stamped before the current epoch may be shared with a published
	// Snapshot and must be cloned before mutation. (Leaves carry no next
	// pointer: a sideways link would force cloning the whole left leaf
	// chain on every copy-on-write; iterators keep a descent stack instead.)
	stamp uint64
	// pid is the page-file page holding this node's serialized image, or 0
	// if the node has changed since it was last written (WritePages assigns
	// a fresh page — shadow paging). Stubs (lazy != nil) always have pid != 0.
	pid bufpool.PageID
	// lazy, when non-nil, means keys/children/rids may not be populated yet:
	// the node is a stub created from a parent's child-pid list and
	// materializes from its page on first touch. Never reset to nil — ensure
	// goes through lazy.once so concurrent snapshot readers race safely.
	lazy *lazyNode
}

// leaf reports whether the node is a leaf. The node must be materialized
// (ensure called) first: stubs keep children nil until they load.
func (n *node) leaf() bool { return n.children == nil }

// search returns the index of the first key >= k.
func (n *node) search(k []byte) int { return searchKeys(n.keys, k) }

// searchKeys returns the index of the first of the ascending keys >= k.
func searchKeys(keys [][]byte, k []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Tree is a B+tree. The zero value is not usable; call New.
type Tree struct {
	root *node
	size int
	// epoch advances each time a Snapshot is published; nodes stamped before
	// the current epoch are frozen and cloned on write.
	epoch uint64
	// snap caches the last published Snapshot; mutations invalidate it.
	snap *Snapshot
	// NodeReads, when set, is incremented once per tree node visited by
	// lookups, seeks and iterator advances. The catalog points it at a
	// shared engine counter; the nil check keeps the package dependency-free.
	NodeReads *atomic.Int64
	// pool backs pooled trees; nil means a pure in-RAM tree.
	pool *bufpool.Pool
	// freed collects page ids superseded by committed copy-on-write since
	// the last WritePages; they return to the pool's allocator there. A pid
	// joins this list only after the mutation that superseded its node
	// succeeds, and cloning materializes the node in place, so no snapshot
	// reader — nor the live tree, if the mutation fails — can fault the page
	// again.
	freed []bufpool.PageID
	// pendingFree stages pids superseded during the mutation in flight. A
	// failed mutation against a frozen root discards the whole cloned path,
	// leaving t.root referencing the original nodes, so their pids must not
	// reach freed (releasing them would let WritePages hand checkpoint-live
	// pages back to the allocator). installRoot commits this list on
	// success; abortMutation resolves it on failure.
	pendingFree []bufpool.PageID
}

// readNodes bumps the read counter by n visited nodes.
func (t *Tree) readNodes(n int64) {
	if t.NodeReads != nil {
		t.NodeReads.Add(n)
	}
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{}}
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// clone returns a mutable copy of n stamped with the current epoch. Key and
// payload bytes are shared (they are immutable); only the slice spines are
// copied. The clone has no page yet (pid 0): WritePages gives changed nodes
// fresh pages. Cloning materializes n, so once a node is superseded its
// in-memory content — not its page — serves any snapshot still holding it.
// The spines have room for one more entry, so the insert or borrow that
// usually follows a clone does not copy them again.
func (t *Tree) clone(n *node) *node {
	n.ensure()
	c := &node{stamp: t.epoch}
	c.keys = append(make([][]byte, 0, len(n.keys)+1), n.keys...)
	if n.children != nil {
		c.children = append(make([]*node, 0, len(n.children)+1), n.children...)
	}
	if n.rids != nil {
		c.rids = append(make([]heap.RID, 0, len(n.rids)+1), n.rids...)
	}
	return c
}

// freePid stages a superseded page id for release once the mutation in
// flight commits (it reaches the allocator at the next WritePages after
// that). Only call for nodes that were just cloned (and are therefore
// materialized).
func (t *Tree) freePid(pid bufpool.PageID) {
	if t.pool != nil && pid != 0 {
		t.pendingFree = append(t.pendingFree, pid)
	}
}

// commitFreed moves the pids staged by the current mutation onto the freed
// list, scheduling their release at the next WritePages.
func (t *Tree) commitFreed() {
	t.freed = append(t.freed, t.pendingFree...)
	t.pendingFree = t.pendingFree[:0]
}

// abortMutation resolves pendingFree after a failed mutation, given the root
// the mutation ran against. If that root was a clone (the tree was frozen by
// a snapshot), the clone and every node linked into it are discarded and
// t.root still references the originals — their pids must stay live, so the
// staged ids are dropped. If the mutation ran in place on the live root,
// clones relinked during the descent remain reachable and their originals
// really are superseded, so the staged ids are committed.
func (t *Tree) abortMutation(root *node) {
	if root == t.root {
		t.commitFreed()
		return
	}
	t.pendingFree = t.pendingFree[:0]
}

// writableChild returns child i of the (already writable) node n, cloning it
// and relinking it into n first if it is frozen in an earlier epoch. Linking
// a clone is harmless even if the operation later fails: the clone holds
// identical content (and the superseded page would be rewritten by the next
// WritePages anyway).
func (t *Tree) writableChild(n *node, i int) *node {
	c := n.children[i]
	if c.stamp != t.epoch {
		nc := t.clone(c)
		t.freePid(c.pid)
		n.children[i] = nc
		c = nc
	}
	return c
}

// writableRoot returns the root, cloned if frozen. The caller installs it
// into t.root (and releases the old root's page) only once the mutation
// succeeds.
func (t *Tree) writableRoot() *node {
	if t.root.stamp != t.epoch {
		return t.clone(t.root)
	}
	return t.root
}

// installRoot publishes the successfully mutated root, releasing the
// superseded root's page if the mutation started by cloning it, and commits
// every pid the mutation staged for release.
func (t *Tree) installRoot(root *node) {
	if root != t.root {
		t.freePid(t.root.pid)
	}
	t.root = root
	t.commitFreed()
}

// Get returns the RID stored under key.
func (t *Tree) Get(key []byte) (heap.RID, bool) {
	return get(t.root, key, t.NodeReads)
}

func get(root *node, key []byte, reads *atomic.Int64) (heap.RID, bool) {
	n := root
	n.ensure()
	visited := int64(1)
	for !n.leaf() {
		n = n.children[n.childFor(key)]
		n.ensure()
		visited++
	}
	if reads != nil {
		reads.Add(visited)
	}
	i := n.search(key)
	if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
		return n.rids[i], true
	}
	return heap.RID{}, false
}

// Count returns the number of keys in [start, end), with the bounds of Seek.
func (t *Tree) Count(start, end []byte) int { return count(t.root, start, end) }

// count sizes a key range index-only: it descends into the children that can
// hold keys of the range and counts leaf keys, reading no heap row. It adds
// nothing to the node-read counter — the planner sizes access paths with it,
// and that is not work a query did.
func count(n *node, start, end []byte) int {
	n.ensure()
	if n.leaf() {
		lo, hi := 0, len(n.keys)
		if start != nil {
			lo = n.search(start)
		}
		if end != nil {
			hi = n.search(end)
		}
		return max(hi-lo, 0)
	}
	lo, hi := 0, len(n.children)-1
	if start != nil {
		lo = n.childFor(start)
	}
	if end != nil {
		hi = n.childFor(end)
	}
	total := 0
	for i := lo; i <= hi; i++ {
		total += count(n.children[i], start, end)
	}
	return total
}

// childFor returns the index of the interior node's child whose subtree
// holds key (a separator equal to key sends it to the right subtree).
func (n *node) childFor(key []byte) int { return childIndex(n.keys, key) }

// Insert adds key -> rid. The key bytes are copied.
func (t *Tree) Insert(key []byte, rid heap.RID) error {
	if len(key) > MaxKeySize {
		return ErrKeyTooLarge
	}
	k := make([]byte, len(key))
	copy(k, key)
	t.snap = nil
	root := t.writableRoot()
	promoted, right, err := t.insert(root, k, rid)
	if err != nil {
		t.abortMutation(root)
		return err
	}
	t.installRoot(root)
	if right != nil {
		t.root = &node{
			keys:     [][]byte{promoted},
			children: []*node{root, right},
			stamp:    t.epoch,
		}
	}
	t.size++
	return nil
}

// insert descends to the leaf; on split it returns the promoted separator and
// the new right sibling. n must already be writable (current epoch).
func (t *Tree) insert(n *node, key []byte, rid heap.RID) ([]byte, *node, error) {
	if n.leaf() {
		i := n.search(key)
		if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
			return nil, nil, ErrDuplicate
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.rids = append(n.rids, heap.RID{})
		copy(n.rids[i+1:], n.rids[i:])
		n.rids[i] = rid
		if overfull(n) {
			return t.splitLeaf(n)
		}
		return nil, nil, nil
	}
	i := n.search(key)
	if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
		i++
	}
	promoted, right, err := t.insert(t.writableChild(n, i), key, rid)
	if err != nil || right == nil {
		return nil, nil, err
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = promoted
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
	if overfull(n) {
		return t.splitInterior(n)
	}
	return nil, nil, nil
}

// overfull reports whether a node must split: above the fan-out bound, or
// (with at least two keys, so a split is possible) too large to serialize
// comfortably into a page. The byte bound is a safety valve for long keys;
// typical key sizes hit maxKeys long before it.
func overfull(n *node) bool {
	return len(n.keys) > maxKeys || (len(n.keys) > 1 && nodeBytes(n) > nodeByteBudget)
}

// splitPoint returns the index an overfull node splits at: the key-count
// midpoint, unless the node is over the byte budget, when the split balances
// bytes instead. Keys of mixed lengths would otherwise leave one half with
// half the keys but a sliver of the bytes (Validate's fill rule relies on a
// byte-split half keeping at least a quarter of the budget). A leaf splits
// into keys[:mid] and keys[mid:]; an interior node promotes keys[mid] and
// keeps keys[:mid] and keys[mid+1:], each with one child more than keys.
// Both halves keep at least one key, except an interior node of two keys,
// whose right half keeps only a child.
func splitPoint(n *node) int {
	if len(n.keys) > maxKeys {
		return len(n.keys) / 2
	}
	per, left, last := ridBytes, nodeHeaderBytes, len(n.keys)-1
	if !n.leaf() {
		per, left, last = childPidBytes, nodeHeaderBytes+childPidBytes, max(len(n.keys)-2, 1)
	}
	total := nodeBytes(n)
	best, bestMax := 1, total
	for mid := 1; mid <= last; mid++ {
		left += 2 + len(n.keys[mid-1]) + per
		right := total - left + nodeHeaderBytes
		if !n.leaf() {
			right -= 2 + len(n.keys[mid])
		}
		if m := max(left, right); m < bestMax {
			best, bestMax = mid, m
		}
	}
	return best
}

func (t *Tree) splitLeaf(n *node) ([]byte, *node, error) {
	mid := splitPoint(n)
	right := &node{
		keys:  append([][]byte(nil), n.keys[mid:]...),
		rids:  append([]heap.RID(nil), n.rids[mid:]...),
		stamp: t.epoch,
	}
	n.keys = n.keys[:mid:mid]
	n.rids = n.rids[:mid:mid]
	return right.keys[0], right, nil
}

func (t *Tree) splitInterior(n *node) ([]byte, *node, error) {
	mid := splitPoint(n)
	promoted := n.keys[mid]
	right := &node{
		keys:     append([][]byte(nil), n.keys[mid+1:]...),
		children: append([]*node(nil), n.children[mid+1:]...),
		stamp:    t.epoch,
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return promoted, right, nil
}

// Delete removes key.
func (t *Tree) Delete(key []byte) error {
	t.snap = nil
	root := t.writableRoot()
	if err := t.delete(root, key); err != nil {
		t.abortMutation(root)
		return err
	}
	t.installRoot(root)
	if !root.leaf() && len(root.keys) == 0 {
		// The emptied interior root collapses away; it was writable (pid 0),
		// so there is no page to release.
		t.root = root.children[0]
	}
	t.size--
	return nil
}

// Replace removes old and inserts newKey -> rid: the index side of a row
// whose key changed. It makes one copy-on-write descent by old, noting the
// separator bounds [lo, hi) of the leaf it reaches. When newKey falls in
// those bounds and the leaf stays within the byte budget, the entry moves
// inside the leaf: the key count is unchanged, so nothing splits or
// rebalances. Otherwise it falls back to Delete then Insert. A missing old
// returns ErrNotFound and changes nothing; a newKey already present returns
// ErrDuplicate with old removed, as Delete then Insert would. The key bytes
// are copied.
func (t *Tree) Replace(old, newKey []byte, rid heap.RID) error {
	if len(newKey) > MaxKeySize {
		return ErrKeyTooLarge
	}
	t.snap = nil
	root := t.writableRoot()
	n := root
	var lo, hi []byte
	for !n.leaf() {
		i := n.childFor(old)
		if i > 0 {
			lo = n.keys[i-1]
		}
		if i < len(n.keys) {
			hi = n.keys[i]
		}
		n = t.writableChild(n, i)
	}
	i := n.search(old)
	if i >= len(n.keys) || !bytes.Equal(n.keys[i], old) {
		t.abortMutation(root)
		return ErrNotFound
	}
	// The path is cloned and identical in content, so it is installed even
	// when the move falls back: Delete and Insert then run on it in place.
	t.installRoot(root)
	if !t.moveInLeaf(n, i, newKey, rid, lo, hi) {
		if err := t.Delete(old); err != nil {
			return err
		}
		return t.Insert(newKey, rid)
	}
	return nil
}

// moveInLeaf rewrites entry i of the writable leaf n as newKey -> rid,
// shifting the entries between its old and new positions by one slot. It
// reports false, changing nothing, when the result would leave the leaf's
// bounds [lo, hi), collide with another key, outgrow the byte budget, or
// shrink a leaf that is underfull by key count below the byte fill that
// Validate accepts in its place (Delete would have rebalanced it).
func (t *Tree) moveInLeaf(n *node, i int, newKey []byte, rid heap.RID, lo, hi []byte) bool {
	if (lo != nil && bytes.Compare(newKey, lo) < 0) || (hi != nil && bytes.Compare(newKey, hi) >= 0) {
		return false
	}
	j := n.search(newKey)
	if j < len(n.keys) && j != i && bytes.Equal(n.keys[j], newKey) {
		return false
	}
	if grow := len(newKey) - len(n.keys[i]); grow > 0 {
		if len(n.keys) > 1 && nodeBytes(n)+grow > nodeByteBudget {
			return false
		}
	} else if grow < 0 && len(n.keys) < minFill && nodeBytes(n)+grow < nodeByteBudget/4 {
		return false
	}
	k := make([]byte, len(newKey))
	copy(k, newKey)
	if j > i {
		// newKey sorts after entries i+1..j-1: they shift down one slot.
		j--
		copy(n.keys[i:j], n.keys[i+1:j+1])
		copy(n.rids[i:j], n.rids[i+1:j+1])
	} else if j < i {
		copy(n.keys[j+1:i+1], n.keys[j:i])
		copy(n.rids[j+1:i+1], n.rids[j:i])
	}
	n.keys[j] = k
	n.rids[j] = rid
	return true
}

// delete removes key from the subtree under the writable node n.
func (t *Tree) delete(n *node, key []byte) error {
	if n.leaf() {
		i := n.search(key)
		if i >= len(n.keys) || !bytes.Equal(n.keys[i], key) {
			return ErrNotFound
		}
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.rids = append(n.rids[:i], n.rids[i+1:]...)
		return nil
	}
	i := n.search(key)
	if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
		i++
	}
	if err := t.delete(t.writableChild(n, i), key); err != nil {
		return err
	}
	if len(n.children[i].keys) < minKeys {
		t.rebalance(n, i)
	}
	return nil
}

// rebalance fixes an underflowing child i of n by borrowing from or merging
// with a sibling. n and child i are writable; the sibling touched is cloned
// here if frozen.
func (t *Tree) rebalance(n *node, i int) {
	child := n.children[i]
	// Sibling fill checks read frozen siblings, which may be stubs.
	if i > 0 {
		n.children[i-1].ensure()
	}
	if i < len(n.children)-1 {
		n.children[i+1].ensure()
	}
	// Borrow from left sibling.
	if i > 0 && len(n.children[i-1].keys) > minKeys {
		left := t.writableChild(n, i-1)
		if child.leaf() {
			last := len(left.keys) - 1
			child.keys = slices.Insert(child.keys, 0, left.keys[last])
			child.rids = slices.Insert(child.rids, 0, left.rids[last])
			left.keys = left.keys[:last]
			left.rids = left.rids[:last]
			n.keys[i-1] = child.keys[0]
		} else {
			last := len(left.keys) - 1
			child.keys = slices.Insert(child.keys, 0, n.keys[i-1])
			child.children = slices.Insert(child.children, 0, left.children[last+1])
			n.keys[i-1] = left.keys[last]
			left.keys = left.keys[:last]
			left.children = left.children[:last+1]
		}
		return
	}
	// Borrow from right sibling.
	if i < len(n.children)-1 && len(n.children[i+1].keys) > minKeys {
		right := t.writableChild(n, i+1)
		if child.leaf() {
			child.keys = append(child.keys, right.keys[0])
			child.rids = append(child.rids, right.rids[0])
			right.keys = right.keys[1:]
			right.rids = right.rids[1:]
			n.keys[i] = right.keys[0]
		} else {
			child.keys = append(child.keys, n.keys[i])
			child.children = append(child.children, right.children[0])
			n.keys[i] = right.keys[0]
			right.keys = right.keys[1:]
			right.children = right.children[1:]
		}
		return
	}
	// Merge with a sibling. Byte-budget splits (long keys) leave nodes near
	// nodeByteBudget with few keys; recombining two such nodes could build
	// one that no longer serializes into a page, wedging every subsequent
	// WritePages. mergeChildren therefore refuses any merge whose result
	// would exceed the byte budget — checked before cloning anything — and
	// the underflowing child tries its other neighbor, or simply stays
	// underfull by key count (it is byte-heavy, so the page is well used).
	if i > 0 && t.mergeChildren(n, i-1) {
		return
	}
	if i < len(n.children)-1 {
		t.mergeChildren(n, i)
	}
}

// mergeChildren merges children li and li+1 of the writable node n, pulling
// down the separator between them when they are interior. It reports whether
// the merge happened: a merge whose result would serialize above
// nodeByteBudget is skipped. Both children must be materialized (rebalance
// ensures the siblings it touches).
func (t *Tree) mergeChildren(n *node, li int) bool {
	if mergedNodeBytes(n, li) > nodeByteBudget {
		return false
	}
	left := t.writableChild(n, li)
	right := t.writableChild(n, li+1)
	if left.leaf() {
		left.keys = append(left.keys, right.keys...)
		left.rids = append(left.rids, right.rids...)
	} else {
		left.keys = append(left.keys, n.keys[li])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	n.keys = append(n.keys[:li], n.keys[li+1:]...)
	n.children = append(n.children[:li+1], n.children[li+2:]...)
	return true
}

// Snapshot is an immutable point-in-time view of a tree, safe for concurrent
// lock-free traversal while the owning tree keeps changing.
type Snapshot struct {
	root  *node
	size  int
	reads *atomic.Int64
}

// Snapshot publishes the current tree as an immutable Snapshot and advances
// the copy-on-write epoch. The result is cached: snapshotting an unmodified
// tree returns the same Snapshot without copying anything. Snapshot must be
// called from the writer side; the returned Snapshot itself is safe for
// concurrent use.
func (t *Tree) Snapshot() *Snapshot {
	if t.snap == nil {
		t.epoch++
		t.snap = &Snapshot{root: t.root, size: t.size, reads: t.NodeReads}
	}
	return t.snap
}

// Len returns the number of entries in the snapshot.
func (s *Snapshot) Len() int { return s.size }

// Get returns the RID stored under key.
func (s *Snapshot) Get(key []byte) (heap.RID, bool) {
	return get(s.root, key, s.reads)
}

// Seek returns an iterator positioned at the first key >= start. A nil start
// begins at the smallest key. end, when non-nil, is an exclusive upper bound.
func (s *Snapshot) Seek(start, end []byte) *Iterator {
	return seek(s.root, start, end, s.reads, false)
}

// SeekDesc returns an iterator over the keys of [start, end) in descending
// order, positioned at the last key < end. Nil bounds are open, as in Seek.
func (s *Snapshot) SeekDesc(start, end []byte) *Iterator {
	return seek(s.root, start, end, s.reads, true)
}

// ScanPrefix returns an iterator over all keys with the given prefix.
func (s *Snapshot) ScanPrefix(prefix []byte) *Iterator {
	return s.Seek(prefix, prefixSuccessor(prefix))
}

// Count returns the number of keys in [start, end), with the bounds of Seek.
func (s *Snapshot) Count(start, end []byte) int { return count(s.root, start, end) }

// Unmetered returns a twin of the snapshot whose lookups and iterators count
// no node reads.
func (s *Snapshot) Unmetered() *Snapshot {
	c := *s
	c.reads = nil
	return &c
}

// iterFrame is one level of an iterator's descent stack: a node plus the
// index of the key (leaf) or child (interior) the iterator is at.
type iterFrame struct {
	n *node
	i int
}

// Iterator walks the entries of a key range in ascending or descending key
// order. It keeps the root-to-leaf descent stack instead of following
// sideways leaf links, so it works over copy-on-write snapshots whose leaves
// carry no next pointers.
type Iterator struct {
	stack []iterFrame // path from root (bottom) to current leaf (top); never empty
	// bound is the range end the iterator walks toward: the exclusive upper
	// bound ascending, the inclusive lower bound descending; nil = none.
	bound []byte
	reads *atomic.Int64 // owning tree's node-read counter; may be nil
	desc  bool
}

// Seek returns an iterator positioned at the first key >= start. A nil start
// begins at the smallest key. end, when non-nil, is an exclusive upper bound.
func (t *Tree) Seek(start, end []byte) *Iterator {
	return seek(t.root, start, end, t.NodeReads, false)
}

// SeekDesc returns an iterator over the keys of [start, end) in descending
// order, positioned at the last key < end. Nil bounds are open, as in Seek.
func (t *Tree) SeekDesc(start, end []byte) *Iterator {
	return seek(t.root, start, end, t.NodeReads, true)
}

func seek(root *node, start, end []byte, reads *atomic.Int64, desc bool) *Iterator {
	it := &Iterator{bound: end, reads: reads, desc: desc}
	if desc {
		it.bound = start
	}
	it.descend(root, start, end)
	it.settle()
	return it
}

// descend pushes the path from n down to a leaf, metering every node it
// reads. Each frame is positioned where the range [start, end) begins in the
// iterator's direction: ascending, on the child holding start and then the
// first key >= start; descending, on the child that can hold the last key
// < end and then that key. Nil bounds select the first (ascending) or last
// (descending) child and key, which is how advancing enters the next
// subtree. A leaf index may land one past either end; settle moves on.
func (it *Iterator) descend(n *node, start, end []byte) {
	visited := int64(0)
	for {
		n.ensure()
		visited++
		var i int
		switch {
		case !it.desc && start == nil:
			i = 0
		case !it.desc && n.leaf():
			i = n.search(start)
		case !it.desc:
			i = n.childFor(start)
		case n.leaf() && end == nil:
			i = len(n.keys) - 1
		case n.leaf():
			i = n.search(end) - 1
		case end == nil:
			i = len(n.children) - 1
		default:
			// The first separator >= end bounds the child from above, so
			// every key < end that is not in it lies to its left.
			i = n.search(end)
		}
		it.stack = append(it.stack, iterFrame{n: n, i: i})
		if n.leaf() {
			break
		}
		n = n.children[i]
	}
	if it.reads != nil {
		it.reads.Add(visited)
	}
}

// ScanPrefix returns an iterator over all keys with the given prefix.
func (t *Tree) ScanPrefix(prefix []byte) *Iterator {
	return t.Seek(prefix, prefixSuccessor(prefix))
}

func prefixSuccessor(p []byte) []byte {
	out := make([]byte, len(p))
	copy(out, p)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}

// settle moves the iterator onto the nearest leaf entry in its direction:
// it pops exhausted frames and descends into the next sibling subtree (the
// one to the right ascending, to the left descending). An exhausted iterator
// keeps the root frame, positioned past its last child or key, so Reseek
// always has a path to start from.
func (it *Iterator) settle() {
	for {
		top := &it.stack[len(it.stack)-1]
		if top.n.leaf() {
			if uint(top.i) < uint(len(top.n.keys)) {
				return
			}
		} else {
			if it.desc {
				top.i--
			} else {
				top.i++
			}
			if uint(top.i) < uint(len(top.n.children)) {
				it.descend(top.n.children[top.i], nil, nil)
				continue
			}
		}
		if len(it.stack) == 1 {
			return
		}
		it.stack = it.stack[:len(it.stack)-1]
	}
}

// Reseek repositions an ascending iterator at the first key >= start, with
// end as its new exclusive upper bound (nil bounds are open, as in Seek). It
// yields exactly what a fresh Seek(start, end) on the same tree would, but
// reuses the descent stack: child i of an interior node holds the keys in
// [keys[i-1], keys[i]), so the separators on the path bound every frame's
// key range, and the deepest frame whose range holds start is where a fresh
// descent would pass too. Reseek keeps that frame and the ones above it and
// searches down from there. A probe just ahead of the previous one costs one
// leaf search; one that goes backwards keeps only the root and costs what a
// fresh Seek costs. Every node whose keys Reseek searches — the kept frame
// and each node it descends into — counts as a node read.
//
// The tree must not have changed since the iterator was positioned: the
// stack holds its nodes.
func (it *Iterator) Reseek(start, end []byte) {
	if it.desc {
		panic("btree: Reseek on a descending iterator")
	}
	it.bound = end
	keep := 0
	var lo, hi []byte
	for d := 0; d+1 < len(it.stack); d++ {
		f := it.stack[d]
		if f.i > 0 {
			lo = f.n.keys[f.i-1]
		}
		if f.i < len(f.n.keys) {
			hi = f.n.keys[f.i]
		}
		if bytes.Compare(start, lo) < 0 || (hi != nil && bytes.Compare(start, hi) >= 0) {
			break
		}
		keep = d + 1
	}
	n := it.stack[keep].n
	it.stack = it.stack[:keep]
	it.descend(n, start, end)
	it.settle()
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool {
	top := it.stack[len(it.stack)-1]
	if uint(top.i) >= uint(len(top.n.keys)) {
		return false
	}
	// Ascending keys must lie below the bound, descending ones at or above.
	return it.bound == nil || (bytes.Compare(top.n.keys[top.i], it.bound) < 0) != it.desc
}

// Key returns the current key. Valid only while Valid() is true. The slice
// aliases tree memory and must not be mutated.
func (it *Iterator) Key() []byte {
	top := it.stack[len(it.stack)-1]
	return top.n.keys[top.i]
}

// RID returns the current record id.
func (it *Iterator) RID() heap.RID {
	top := it.stack[len(it.stack)-1]
	return top.n.rids[top.i]
}

// Next moves the iterator to the following entry in its direction.
func (it *Iterator) Next() {
	top := &it.stack[len(it.stack)-1]
	if it.desc {
		top.i--
	} else {
		top.i++
	}
	if uint(top.i) >= uint(len(top.n.keys)) {
		it.settle() // the leaf is exhausted
	}
}
