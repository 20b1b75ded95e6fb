package btree

import (
	"bytes"
	"math"
	"slices"
	"sort"

	"ordxml/internal/sqldb/heap"
)

// Rewrite is a prepared order-preserving rewrite: a set of entries whose keys
// change without changing any entry's rank in the tree. It is the index side
// of an UPDATE such as `SET k = k + 1 WHERE k >= ?`, which moves runs of
// adjacent entries up without passing any entry it leaves alone. Apply
// writes the new keys into the slots the old ones held, in one pass over the
// runs' leaves, so no entry is deleted, inserted or moved between slots and
// the tree keeps its shape.
type Rewrite struct {
	t    *Tree
	keys RewriteKeys
	// ends lists the index of each run's last entry, ascending, and after
	// the untouched entry that follows the run (nil at the end of the tree).
	ends  []int
	after [][]byte
	tail  int
	// resized is set when some new key's length differs from its old key's.
	resized bool
	// plan records, in the order the check visits them, what Apply needs
	// of the old keys: each interior batch's child, end and whether the
	// separator after the child changes, each leaf entry's slot. Apply
	// replays it from at and reads no old key.
	plan []int32
	at   int
}

// RewriteKeys lists a rewrite's entries in ascending order of their old
// keys: entry j's key Old(j) becomes New(j, old), and its RID RID(j). New is
// passed entry j's old key, read from Old or from the tree, and its result
// need only stay valid until the next call of New, so a caller may build
// new keys in one buffer. Only PrepareRewrite reads Old, so a caller may
// drop the old keys once it returns. Apply reads New and RID again, so a
// caller may change a new key's tail (see PrepareRewrite) and the RIDs in
// between.
type RewriteKeys interface {
	Len() int
	Old(j int) []byte
	New(j int, old []byte) []byte
	RID(j int) heap.RID
}

// PrepareRewrite checks that replacing each entry's old key with its new key
// keeps every entry's rank and every node the rewrite touches within its
// byte budget, and returns the rewrite; it reports false when either fails.
// It changes nothing. The old keys must ascend strictly and each must be in
// the tree, else it reports false too.
//
// The entries group into runs: stretches of old keys that are adjacent in
// the tree. Ranks are kept when every new key sorts above its old key, new
// keys ascend strictly within a run, and a run's last new key sorts below
// the entry after the run. The comparisons ignore the last tail bytes of
// every key, and must then be strict before them: a caller passes the width
// of a suffix it may still change before Apply (a RID suffix) in place in
// the new keys. Nodes keep the fill rules Validate checks (see check).
//
// PrepareRewrite counts no node reads: like Replace, it is a write's
// descent. The tree must not change before Apply.
func (t *Tree) PrepareRewrite(keys RewriteKeys, tail int) (*Rewrite, bool) {
	n := keys.Len()
	r := &Rewrite{t: t, keys: keys, tail: tail}
	if n == 0 {
		return r, true
	}
	if n > math.MaxInt32 {
		return nil, false // the plan numbers entries in 32 bits
	}
	head := r.head
	var prev []byte // the head of the last new key
	it := seek(t.root, keys.Old(0), nil, nil, false)
	for j := 0; j < n; j++ {
		if j > 0 {
			if bytes.Compare(keys.Old(j-1), keys.Old(j)) >= 0 {
				return nil, false
			}
			it.Reseek(keys.Old(j), nil)
		}
		if !it.Valid() || !bytes.Equal(it.Key(), keys.Old(j)) {
			return nil, false
		}
		newKey := keys.New(j, keys.Old(j))
		r.resized = r.resized || len(newKey) != len(keys.Old(j))
		prev = append(prev[:0], head(newKey)...)
		for {
			if bytes.Compare(prev, head(keys.Old(j))) <= 0 {
				return nil, false
			}
			it.Next()
			if j+1 == n || !it.Valid() || !bytes.Equal(it.Key(), keys.Old(j+1)) {
				break
			}
			newKey = keys.New(j+1, keys.Old(j+1))
			r.resized = r.resized || len(newKey) != len(keys.Old(j+1))
			next := head(newKey)
			if bytes.Compare(prev, next) >= 0 {
				return nil, false
			}
			prev = append(prev[:0], next...)
			j++
		}
		var after []byte
		if it.Valid() {
			if after = it.Key(); bytes.Compare(prev, head(after)) >= 0 {
				return nil, false
			}
		}
		r.ends, r.after = append(r.ends, j), append(r.after, after)
	}
	// A slot per entry, and three numbers per batch, of which a leaf holds
	// tens of entries.
	r.plan = make([]int32, 0, n+n/8+16)
	if _, ok := r.check(t.root, 0, n); !ok {
		return nil, false
	}
	return r, true
}

// Apply rewrites the prepared entries: each gets its new key, whose bytes are
// copied, and its RID. Nodes on the runs' paths that a published
// Snapshot may share are cloned first, as every mutation clones them, so a
// snapshot keeps reading the old keys and a pooled tree writes the changed
// nodes to fresh pages at its next WritePages.
func (r *Rewrite) Apply() {
	n := r.keys.Len()
	if n == 0 {
		return
	}
	t := r.t
	t.snap = nil
	root := t.writableRoot()
	r.at = 0
	r.apply(root, 0, n)
	t.installRoot(root)
}

// check checks the rewrite of entries lo..hi-1, which all lie in n's
// subtree, and records in r.plan where each lies. It returns how many bytes
// n's serialized size changes by, and reports false when some node the
// rewrite touches would break a rule Validate checks: a node may not grow
// past the byte budget (unless it has one key), and a node that shrinks may
// not leave a neighbour that is underfull by both keys and bytes with a
// merge that fits.
//
// A separator can fall inside a run. Child c of an interior node holds the
// keys in [keys[c-1], keys[c]), so separator c lies above the largest key L
// of child c and at or below the smallest key R of child c+1. When L is
// rewritten and its new key no longer sorts below the separator, the
// separator becomes R's new key, which the rewrite puts after L's. If L's
// new key still sorts below it, it still bounds child c: R only moves up.
func (r *Rewrite) check(n *node, lo, hi int) (int, bool) {
	n.ensure()
	keys := r.keys
	grow := 0
	if n.leaf() {
		// The first pass found every old key in the tree; a run's next
		// entry is usually the next slot.
		for j, i := lo, 0; j < hi; j, i = j+1, i+1 {
			old := keys.Old(j)
			if i = slotOf(n, i, old); i < 0 {
				return 0, false
			}
			r.plan = append(r.plan, int32(i))
			if r.resized {
				grow += len(keys.New(j, old)) - len(old)
			}
		}
		return grow, fits(n, grow)
	}
	// grows[c] is child c's size change, grows[len(children)+c] separator
	// c's; nil while nothing changed size.
	var grows []int
	setGrow := func(i, g int) {
		if g != 0 {
			if grows == nil {
				grows = make([]int, 2*len(n.children))
			}
			grows[i] = g
		}
	}
	// Each batch lies in a later child than the last.
	for j, c := lo, 0; j < hi; c++ {
		c += childIndex(n.keys[c:], keys.Old(j))
		end := hi
		if c < len(n.keys) {
			sep := n.keys[c]
			end = j + sort.Search(hi-j, func(k int) bool { return bytes.Compare(keys.Old(j+k), sep) >= 0 })
		}
		at := len(r.plan)
		r.plan = append(r.plan, int32(c), int32(end), 0)
		g, ok := r.check(n.children[c], j, end)
		if !ok {
			return 0, false
		}
		setGrow(c, g)
		if c < len(n.keys) && r.passes(n.keys[c], keys.New(end-1, keys.Old(end-1))) {
			r.plan[at+2] = 1
			sep := r.next(end - 1)
			grow += len(sep) - len(n.keys[c])
			setGrow(len(n.children)+c, len(sep)-len(n.keys[c]))
		}
		j = end
	}
	return grow, fits(n, grow) && mergesStayBlocked(n, grows)
}

// apply rewrites entries lo..hi-1 of writable node n's subtree where the
// check recorded them, and the separators check found inside runs: such a
// separator follows the largest key of its child, so it becomes the
// smallest key of the next child, as rewritten.
func (r *Rewrite) apply(n *node, lo, hi int) {
	n.ensure()
	keys := r.keys
	if n.leaf() {
		slots := r.plan[r.at : r.at+hi-lo]
		r.at += hi - lo
		// One arena holds the leaf's new keys. It is sized by the old ones,
		// which the new ones match in length unless the byte-budget check
		// saw them change; an arena that must grow leaves the keys copied
		// so far where they are.
		size := 0
		for _, i := range slots {
			size += len(n.keys[i])
		}
		arena := make([]byte, 0, size)
		for k, i := range slots {
			start := len(arena)
			arena = append(arena, keys.New(lo+k, n.keys[i])...)
			n.keys[i] = arena[start:len(arena):len(arena)]
			n.rids[i] = keys.RID(lo + k)
		}
		return
	}
	var seps []int
	for j := lo; j < hi; {
		c, end, pass := int(r.plan[r.at]), int(r.plan[r.at+1]), r.plan[r.at+2] != 0
		r.at += 3
		r.apply(r.t.writableChild(n, c), j, end)
		if pass {
			seps = append(seps, c)
		}
		j = end
	}
	for _, c := range seps {
		first := n.children[c+1]
		for first.ensure(); !first.leaf(); first.ensure() {
			first = first.children[0]
		}
		n.keys[c] = bytes.Clone(first.keys[0])
	}
}

// mergesStayBlocked reports whether no pair of adjacent children of n that
// the rewrite shrinks (either child or the separator between them) would
// leave an underfull child with a merge that fits, given the size changes
// grows (see check; nil when nothing changed size).
func mergesStayBlocked(n *node, grows []int) bool {
	if grows == nil {
		return true
	}
	nc := len(n.children)
	for c := 0; c+1 < nc; c++ {
		if grows[c] >= 0 && grows[c+1] >= 0 && grows[nc+c] >= 0 {
			continue
		}
		left, right := n.children[c], n.children[c+1]
		left.ensure()
		right.ensure()
		lsize, rsize := nodeBytes(left)+grows[c], nodeBytes(right)+grows[c+1]
		small := func(x *node, size int) bool { return len(x.keys) < minFill && size < nodeByteBudget/4 }
		if !small(left, lsize) && !small(right, rsize) {
			continue
		}
		merged := lsize + rsize - nodeHeaderBytes
		if !left.leaf() {
			merged += 2 + len(n.keys[c]) + grows[nc+c]
		}
		if merged <= nodeByteBudget {
			return false
		}
	}
	return true
}

// next returns the key entry j is followed by once the rewrite is applied:
// the next entry's new key inside a run, the entry after the run at its end.
func (r *Rewrite) next(j int) []byte {
	if k, ok := slices.BinarySearch(r.ends, j); ok {
		return r.after[k]
	}
	return r.keys.New(j+1, r.keys.Old(j+1))
}

// head is k without the tail bytes the caller may still change.
func (r *Rewrite) head(k []byte) []byte { return k[:max(len(k)-r.tail, 0)] }

// passes reports whether the separator sep must change because the new key
// of the largest entry below it may no longer sort below it. A separator
// may always become the next entry's new key, so while the key's tail may
// still change, a separator that starts with the key's head passes too:
// the answer then does not depend on the tail, and Apply gives the one
// PrepareRewrite sized.
func (r *Rewrite) passes(sep, key []byte) bool {
	if r.tail == 0 {
		return bytes.Compare(sep, key) <= 0
	}
	h := r.head(key)
	return bytes.Compare(sep[:min(len(sep), len(h))], h) <= 0
}

// childIndex is childFor over the separators keys.
func childIndex(keys [][]byte, key []byte) int {
	i := searchKeys(keys, key)
	if i < len(keys) && bytes.Equal(keys[i], key) {
		i++
	}
	return i
}

// slotOf returns the index of key in leaf n, searching from slot from (a
// run's next entry is usually the next slot), or -1 when it is absent.
func slotOf(n *node, from int, key []byte) int {
	if from < len(n.keys) && bytes.Equal(n.keys[from], key) {
		return from
	}
	i := from + searchKeys(n.keys[from:], key)
	if i < len(n.keys) && bytes.Equal(n.keys[i], key) {
		return i
	}
	return -1
}

// fits reports whether node n may grow by grow bytes in place: always when
// it does not grow, else while it has one key or stays within the byte
// budget.
func fits(n *node, grow int) bool {
	return grow <= 0 || len(n.keys) <= 1 || nodeBytes(n)+grow <= nodeByteBudget
}
