package btree

import (
	"bytes"
	"fmt"
)

// minFill is the lowest legal key count for a non-root node that is not
// byte-heavy. Count splits and rebalancing keep nodes at minKeys (32) or
// better, but BulkLoad distributes items evenly over ceil(n/bulkFill) nodes,
// which can legally produce nodes holding as few as bulkFill/2 keys
// (n = bulkFill+1 builds two 24/25 leaves).
const minFill = bulkFill / 2

// Validate checks the tree's structural invariants and returns a description
// of every violation found (nil for a healthy tree):
//
//   - node shape: interior nodes have len(children) == len(keys)+1, leaves
//     have parallel keys/rids;
//   - fill: no node exceeds maxKeys; a non-root node holds at least minFill
//     keys, or a quarter of nodeByteBudget, or cannot merge with a neighbor;
//   - order: keys are strictly ascending within every node, and every key in
//     child i of an interior node n satisfies n.keys[i-1] <= key < n.keys[i]
//     (equal separators descend right, matching the search convention);
//   - balance: every leaf is at the same depth;
//   - size: Len() equals the total number of leaf keys.
//
// Validate is a diagnostic: it reads the whole tree and is not meant for hot
// paths.
func (t *Tree) Validate() []string {
	var problems []string
	report := func(format string, args ...any) {
		if len(problems) < 64 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	if t.root == nil {
		return []string{"tree has nil root (use New)"}
	}

	leafDepth := -1
	total := 0
	var walk func(n *node, depth int, lower, upper []byte)
	walk = func(n *node, depth int, lower, upper []byte) {
		n.ensure()
		if len(n.keys) > maxKeys {
			report("node at depth %d holds %d keys, above the split bound %d", depth, len(n.keys), maxKeys)
		}
		for i, k := range n.keys {
			if i > 0 && bytes.Compare(n.keys[i-1], k) >= 0 {
				report("node at depth %d has keys out of order at index %d (%x >= %x)", depth, i, n.keys[i-1], k)
			}
			if lower != nil && bytes.Compare(k, lower) < 0 {
				report("node at depth %d has key %x below its separator lower bound %x", depth, k, lower)
			}
			if upper != nil && bytes.Compare(k, upper) >= 0 {
				report("node at depth %d has key %x at or above its separator upper bound %x", depth, k, upper)
			}
		}
		if n.leaf() {
			if len(n.rids) != len(n.keys) {
				report("leaf at depth %d has %d rids for %d keys", depth, len(n.rids), len(n.keys))
			}
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				report("leaf at depth %d but first leaf at depth %d: tree unbalanced", depth, leafDepth)
			}
			total += len(n.keys)
			return
		}
		if len(n.children) != len(n.keys)+1 {
			report("interior node at depth %d has %d children for %d keys", depth, len(n.children), len(n.keys))
			return
		}
		for i, c := range n.children {
			childLower, childUpper := lower, upper
			if i > 0 {
				childLower = n.keys[i-1]
			}
			if i < len(n.keys) {
				childUpper = n.keys[i]
			}
			walk(c, depth+1, childLower, childUpper)
		}
		// Fill is checked from the parent so neighbor context is available:
		// byte-budget splits and byte-blocked merges (long keys) legally
		// produce nodes with few keys. A byte split balances bytes, so each
		// half keeps at least a quarter of the budget while no key entry
		// exceeds half of it. A child is underfull only when it is small by
		// both measures AND rebalance could have merged it — some neighbor
		// merge fits the byte budget. (walk has materialized every child by
		// this point, so nodeBytes is safe.)
		for i, c := range n.children {
			if len(c.keys) >= minFill || nodeBytes(c) >= nodeByteBudget/4 {
				continue
			}
			leftFits := i > 0 && mergedNodeBytes(n, i-1) <= nodeByteBudget
			rightFits := i < len(n.children)-1 && mergedNodeBytes(n, i) <= nodeByteBudget
			if leftFits || rightFits {
				report("child %d at depth %d holds %d keys, below the minimum fill %d, with a byte-legal merge available",
					i, depth+1, len(c.keys), minFill)
			}
		}
	}
	walk(t.root, 0, nil, nil)
	if total != t.size {
		report("tree size %d but leaves hold %d keys", t.size, total)
	}
	return problems
}
