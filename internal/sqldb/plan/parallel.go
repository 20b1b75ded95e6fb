package plan

// Parallelization rewrite. After the serial plan is built, parallelize walks
// it top-down looking for order-insensitive consumers (Sort, HashAggregate)
// whose input is a simple scan chain or an inner hash join, and rewrites
//
//	Sort(chain)          → Sort(Gather(chain))            scan marked parallel
//	HashAggregate(chain) → HashAggregate(Gather(chain))
//	... HashJoin ...     → ... PartitionedHashJoin ...
//
// when the planning context estimates enough input rows to amortize worker
// startup. Plans whose access path already satisfies the query order (the
// planner elided the Sort) are never rewritten — there is no order-
// insensitive consumer to hide the nondeterministic merge behind — and DML
// scans never pass through here at all.

// parallelize applies the parallel rewrite to a finished SELECT plan.
func parallelize(n Node, pc Context, opts Options) Node {
	if opts.Workers <= 1 {
		return n
	}
	return rewriteParallel(n, pc, opts)
}

// rewriteParallel descends through order-preserving wrappers to find the
// order-insensitive consumers where a Gather can be introduced.
func rewriteParallel(n Node, pc Context, opts Options) Node {
	switch x := n.(type) {
	case *Limit:
		x.Input = rewriteParallel(x.Input, pc, opts)
	case *Trim:
		x.Input = rewriteParallel(x.Input, pc, opts)
	case *Distinct:
		x.Input = rewriteParallel(x.Input, pc, opts)
	case *Project:
		x.Input = rewriteParallel(x.Input, pc, opts)
	case *Sort:
		x.Input = parallelInput(x.Input, pc, opts)
	case *HashAggregate:
		x.Input = parallelInput(x.Input, pc, opts)
	}
	return n
}

// parallelInput rewrites the input of an order-insensitive consumer: a plain
// scan chain becomes Gather(chain), eligible inner hash joins anywhere in the
// subtree become partitioned, and the descent continues for consumers nested
// deeper (an aggregate below a Sort's projection).
func parallelInput(n Node, pc Context, opts Options) Node {
	if g := gatherChain(n, pc, opts); g != nil {
		return g
	}
	n = parallelJoins(n, pc, opts)
	return rewriteParallel(n, pc, opts)
}

// gatherChain wraps n in a Gather when it is a chain of Project/Filter nodes
// over a single partitionable scan estimated big enough to share out. It
// returns nil when the shape or the estimate says no.
func gatherChain(n Node, pc Context, opts Options) Node {
	leaf := chainLeaf(n)
	if leaf == nil || estimateRows(leaf, pc) < opts.minRows() {
		return nil
	}
	switch s := leaf.(type) {
	case *SeqScan:
		s.Parallel = true
	case *IndexScan:
		s.Parallel = true
	}
	return &Gather{Input: n, Workers: opts.Workers}
}

// chainLeaf returns the scan at the bottom of a pure Project/Filter chain,
// or nil when the subtree has any other shape. DML scans (EmitRID) are
// excluded: updates and deletes must observe live storage serially.
func chainLeaf(n Node) Node {
	for {
		switch x := n.(type) {
		case *Project:
			n = x.Input
		case *Filter:
			n = x.Input
		case *SeqScan:
			if x.EmitRID {
				return nil
			}
			return x
		case *IndexScan:
			if x.EmitRID {
				return nil
			}
			return x
		default:
			return nil
		}
	}
}

// parallelJoins replaces eligible inner HashJoins in the subtree with
// PartitionedHashJoin. The caller guarantees an order-insensitive consumer
// sits above the whole subtree, so the joins' nondeterministic output order
// is invisible.
func parallelJoins(n Node, pc Context, opts Options) Node {
	switch x := n.(type) {
	case *Project:
		x.Input = parallelJoins(x.Input, pc, opts)
	case *Filter:
		x.Input = parallelJoins(x.Input, pc, opts)
	case *HashJoin:
		x.Left = parallelJoins(x.Left, pc, opts)
		x.Right = parallelJoins(x.Right, pc, opts)
		if !x.Outer && estimateRows(x.Left, pc)+estimateRows(x.Right, pc) >= opts.minRows() {
			return &PartitionedHashJoin{
				Left: x.Left, Right: x.Right,
				LeftKeys: x.LeftKeys, RightKeys: x.RightKeys,
				Residual: x.Residual, Workers: opts.Workers,
			}
		}
	case *NLJoin:
		x.Left = parallelJoins(x.Left, pc, opts)
		x.Right = parallelJoins(x.Right, pc, opts)
	case *IndexNLJoin:
		x.Left = parallelJoins(x.Left, pc, opts)
	}
	return n
}

// estimateRows is the cardinality estimate driving the parallel decision. It
// only needs to separate "a handful" from "worth sharing out": a scan's rows
// are the table's, or its index range's counted on the snapshot (the join
// orderer's count), and a unique index with every column bound by equality
// yields at most one row whether or not the values are known yet.
func estimateRows(n Node, pc Context) int {
	switch x := n.(type) {
	case *SeqScan:
		return pc.TableRows(x.Table)
	case *IndexScan:
		if x.Index.Unique && len(x.Eq) == len(x.Index.Columns) {
			return 1
		}
		return indexRangeRows(pc, x)
	case *Filter:
		return estimateRows(x.Input, pc)
	case *Project:
		return estimateRows(x.Input, pc)
	case *HashJoin:
		return max(estimateRows(x.Left, pc), estimateRows(x.Right, pc))
	case *PartitionedHashJoin:
		return max(estimateRows(x.Left, pc), estimateRows(x.Right, pc))
	case *NLJoin:
		return max(estimateRows(x.Left, pc), estimateRows(x.Right, pc))
	case *IndexNLJoin:
		return estimateRows(x.Left, pc)
	case *Gather:
		return estimateRows(x.Input, pc)
	default:
		return 0
	}
}
