package plan

import (
	"fmt"
	"strings"

	"ordxml/internal/sqldb/catalog"
	"ordxml/internal/sqldb/expr"
)

// IndexNLJoin is a correlated index nested-loop join: for every left row it
// evaluates the bound expressions (which may reference left columns) and
// performs an index range scan on the inner table. It is the operator behind
// the paper's structural joins — parent/child lookups, sibling ranges and
// Dewey descendant prefixes all become index probes.
type IndexNLJoin struct {
	Left  Node
	Table *catalog.Table
	Alias string
	Index *catalog.Index
	// Eq are the equality-prefix bounds; Low/High the optional range on the
	// next index column. All are resolved against the LEFT schema (plus
	// parameters/constants).
	Eq       []expr.Expr
	Low      expr.Expr
	High     expr.Expr
	LowExcl  bool
	HighExcl bool
	// Filters are residual predicates over the combined (left ++ right) row.
	Filters []expr.Expr
}

// Schema implements Node.
func (j *IndexNLJoin) Schema() expr.Schema {
	return append(append(expr.Schema{}, j.Left.Schema()...), tableSchema(j.Table, j.Alias, false)...)
}

func (j *IndexNLJoin) describe(b *strings.Builder) {
	fmt.Fprintf(b, "IndexNLJoin %s using %s", j.Table.Name, j.Index.Name)
	if j.Alias != j.Table.Name {
		fmt.Fprintf(b, " AS %s", j.Alias)
	}
	names := j.Index.ColumnNames()
	for i, e := range j.Eq {
		fmt.Fprintf(b, " %s=%s", names[i], e)
	}
	if j.Low != nil {
		op := ">="
		if j.LowExcl {
			op = ">"
		}
		fmt.Fprintf(b, " %s%s%s", names[len(j.Eq)], op, j.Low)
	}
	if j.High != nil {
		op := "<="
		if j.HighExcl {
			op = "<"
		}
		fmt.Fprintf(b, " %s%s%s", names[len(j.Eq)], op, j.High)
	}
	for _, f := range j.Filters {
		fmt.Fprintf(b, " filter=%s", f)
	}
}

// nlCand is one conjunct usable as an index bound for the inner table. The
// bound expressions are evaluable against left rows (constants, parameters,
// or left-column expressions).
type nlCand struct {
	ci         int // index into the planner's conjunct list
	col        int // right-table column (local position)
	eq         expr.Expr
	low, high  expr.Expr
	lowEx      bool
	highEx     bool
	exact      bool
	correlated bool
}

// tryIndexNLJoin attempts to turn the join into a correlated index lookup.
// It returns nil when no index of the inner table matches with at least one
// correlated bound.
func tryIndexNLJoin(left Node, e *tableEntry, perTable []int, cross []int,
	conjuncts []expr.Expr, used []bool, combined expr.Schema) Node {

	if e.table == nil {
		return nil // a relation parameter has no index to probe
	}
	var cands []nlCand
	// Constant single-table conjuncts: reuse the access-path classifier on a
	// rebased clone (its bound expressions are column-free).
	for _, ci := range perTable {
		if used[ci] {
			continue
		}
		local := shiftToLocal([]expr.Expr{conjuncts[ci]}, e.offset)[0]
		if c := classify(local); c != nil {
			cands = append(cands, nlCand{ci: ci, col: c.col, eq: c.eq,
				low: c.low, high: c.high, lowEx: c.lowEx, highEx: c.highEx, exact: c.exact})
		}
	}
	// Correlated conjuncts: rightCol op leftExpr.
	leftAllowed := map[string]bool{}
	for _, col := range left.Schema() {
		leftAllowed[col.Table] = true
	}
	rightLocalCol := func(x expr.Expr) int {
		c, ok := x.(*expr.ColRef)
		if !ok {
			return -1
		}
		if c.Idx < e.offset || c.Idx >= e.offset+len(e.table.Columns) {
			return -1
		}
		return c.Idx - e.offset
	}
	for _, ci := range cross {
		if used[ci] {
			continue
		}
		b, ok := conjuncts[ci].(*expr.Binary)
		if !ok {
			continue
		}
		col, other := -1, expr.Expr(nil)
		op := b.Op
		if c := rightLocalCol(b.L); c >= 0 && refsOnly(b.R, combined, leftAllowed) {
			col, other = c, b.R
		} else if c := rightLocalCol(b.R); c >= 0 && refsOnly(b.L, combined, leftAllowed) {
			col, other = c, b.L
			op = flipOp(op)
		} else {
			continue
		}
		cand := nlCand{ci: ci, col: col, exact: true, correlated: true}
		switch op {
		case expr.OpEq:
			cand.eq = other
		case expr.OpGt:
			cand.low, cand.lowEx = other, true
		case expr.OpGe:
			cand.low = other
		case expr.OpLt:
			cand.high, cand.highEx = other, true
		case expr.OpLe:
			cand.high = other
		default:
			continue
		}
		cands = append(cands, cand)
	}
	if len(cands) == 0 {
		return nil
	}

	type choice struct {
		ix         *catalog.Index
		eq         []expr.Expr
		consumed   []int // candidate list positions
		low, high  expr.Expr
		lowEx      bool
		highEx     bool
		rangeExact bool
		correlated bool
		score      int
	}
	var best *choice
	for _, ix := range e.indexes {
		ch := choice{ix: ix, rangeExact: true}
		usedCand := map[int]bool{}
		for _, col := range ix.Columns {
			found := -1
			for pi, cand := range cands {
				if !usedCand[pi] && cand.col == col && cand.eq != nil {
					found = pi
					break
				}
			}
			if found < 0 {
				break
			}
			usedCand[found] = true
			ch.eq = append(ch.eq, cands[found].eq)
			ch.consumed = append(ch.consumed, found)
			ch.correlated = ch.correlated || cands[found].correlated
		}
		if len(ch.eq) < len(ix.Columns) {
			next := ix.Columns[len(ch.eq)]
			for pi, cand := range cands {
				if usedCand[pi] || cand.col != next || cand.eq != nil {
					continue
				}
				take := false
				if cand.low != nil && ch.low == nil {
					ch.low, ch.lowEx = cand.low, cand.lowEx
					take = true
				}
				if cand.high != nil && ch.high == nil {
					ch.high, ch.highEx = cand.high, cand.highEx
					take = true
				}
				if take {
					usedCand[pi] = true
					ch.consumed = append(ch.consumed, pi)
					ch.correlated = ch.correlated || cand.correlated
					ch.rangeExact = ch.rangeExact && cand.exact
				}
			}
		}
		ch.score = len(ch.eq) * 4
		if ch.low != nil {
			ch.score++
		}
		if ch.high != nil {
			ch.score++
		}
		if !ch.correlated || ch.score == 0 {
			continue
		}
		if best == nil || ch.score > best.score {
			c := ch
			best = &c
		}
	}
	if best == nil {
		return nil
	}

	node := &IndexNLJoin{
		Left: left, Table: e.table, Alias: e.ref.Name(), Index: best.ix,
		Eq: best.eq, Low: best.low, High: best.high,
		LowExcl: best.lowEx, HighExcl: best.highEx,
	}
	// Mark fully subsumed conjuncts used; keep inexact ones (LIKE with a
	// suffix) as residual filters too.
	consumedCI := map[int]bool{}
	for _, pi := range best.consumed {
		cand := cands[pi]
		if cand.eq != nil || cand.exact {
			used[cand.ci] = true
		}
		consumedCI[cand.ci] = true
	}
	// Remaining single-table and cross conjuncts become residual filters on
	// the combined row (its layout extends the combined schema prefix).
	for _, ci := range append(append([]int{}, perTable...), cross...) {
		if used[ci] {
			continue
		}
		node.Filters = append(node.Filters, conjuncts[ci])
		used[ci] = true
	}
	return node
}
