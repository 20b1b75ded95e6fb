package plan

import (
	"ordxml/internal/sqldb/catalog"
	"ordxml/internal/sqldb/expr"
	"ordxml/internal/sqldb/sqlparse"
	"ordxml/internal/sqldb/sqltypes"
)

// candidate classifies one pushed-down conjunct for index matching. All
// expressions are table-local.
type candidate struct {
	conj   expr.Expr // the original conjunct
	col    int       // table column index
	eq     expr.Expr // non-nil for col = const
	low    expr.Expr
	lowEx  bool
	high   expr.Expr
	highEx bool
	// exact reports whether using the candidate as an index bound fully
	// subsumes the conjunct (false for LIKE with a non-trivial suffix).
	exact bool
}

// classify extracts an index-matching candidate from a conjunct, or nil.
func classify(c expr.Expr) *candidate {
	switch x := c.(type) {
	case *expr.Binary:
		col, other, flipped := colAndConst(x.L, x.R)
		if other == nil {
			return nil
		}
		op := x.Op
		if flipped {
			op = flipOp(op)
		}
		switch op {
		case expr.OpEq:
			return &candidate{conj: c, col: col.Idx, eq: other, exact: true}
		case expr.OpGt:
			return &candidate{conj: c, col: col.Idx, low: other, lowEx: true, exact: true}
		case expr.OpGe:
			return &candidate{conj: c, col: col.Idx, low: other, exact: true}
		case expr.OpLt:
			return &candidate{conj: c, col: col.Idx, high: other, highEx: true, exact: true}
		case expr.OpLe:
			return &candidate{conj: c, col: col.Idx, high: other, exact: true}
		case expr.OpLike:
			return classifyLike(c, col, other)
		}
	case *expr.Between:
		if x.Not {
			return nil
		}
		col, ok := x.X.(*expr.ColRef)
		if !ok || !isConstExpr(x.Lo) || !isConstExpr(x.Hi) {
			return nil
		}
		return &candidate{conj: c, col: col.Idx, low: x.Lo, high: x.Hi, exact: true}
	}
	return nil
}

// colAndConst identifies which side is a bare column and which is constant.
func colAndConst(l, r expr.Expr) (col *expr.ColRef, other expr.Expr, flipped bool) {
	if c, ok := l.(*expr.ColRef); ok && isConstExpr(r) {
		return c, r, false
	}
	if c, ok := r.(*expr.ColRef); ok && isConstExpr(l) {
		return c, l, true
	}
	return nil, nil, false
}

func flipOp(op expr.Op) expr.Op {
	switch op {
	case expr.OpLt:
		return expr.OpGt
	case expr.OpLe:
		return expr.OpGe
	case expr.OpGt:
		return expr.OpLt
	case expr.OpGe:
		return expr.OpLe
	default:
		return op
	}
}

// classifyLike turns col LIKE 'prefix%' into a range candidate. Only literal
// patterns qualify (a parameter pattern is unknown at plan time).
func classifyLike(conj expr.Expr, col *expr.ColRef, pattern expr.Expr) *candidate {
	lit, ok := pattern.(*expr.Literal)
	if !ok || lit.Val.Type() != sqltypes.Text {
		return nil
	}
	prefix, exact := expr.LikePrefix(lit.Val.Text())
	if prefix == "" {
		return nil
	}
	cand := &candidate{
		conj:  conj,
		col:   col.Idx,
		low:   &expr.Literal{Val: sqltypes.NewText(prefix)},
		exact: exact,
	}
	if succ := textSuccessor(prefix); succ != "" {
		cand.high = &expr.Literal{Val: sqltypes.NewText(succ)}
		cand.highEx = true
	}
	return cand
}

// textSuccessor returns the smallest string greater than every string with
// the given prefix, or "" when none exists.
func textSuccessor(p string) string {
	b := []byte(p)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] != 0xFF {
			b[i]++
			return string(b[:i+1])
		}
	}
	return ""
}

// buildAccess picks the cheapest access path for one table given its
// pushed-down conjuncts. orderHint, when non-empty, lets the access path
// volunteer to produce rows in the order of its leading items that are
// columns of this table; deliveredOrder tells what it delivers.
func buildAccess(e tableEntry, conjuncts []expr.Expr, orderHint []sqlparse.OrderItem) Node {
	if e.table == nil {
		var n Node = &ParamScan{Param: e.ref.Param, Alias: e.ref.Alias, Cols: e.ref.Cols}
		if len(conjuncts) > 0 {
			n = &Filter{Input: n, Pred: andAll(conjuncts)}
		}
		return n
	}
	t := e.table
	alias := e.ref.Name()
	schema := tableSchema(t, alias, false)

	cands := make([]*candidate, len(conjuncts))
	for i, c := range conjuncts {
		cands[i] = classify(c)
	}

	// Resolve the order hint to table columns (best effort). An index
	// delivers a descending order by scanning its range backwards.
	orderCols, desc, orderOK := resolveOrderHint(orderHint, schema)

	type choice struct {
		ix      *catalog.Index
		eq      []expr.Expr
		eqCands []int
		lowIdx  int // candidate supplying the lower bound, or -1
		highIdx int // candidate supplying the upper bound, or -1
		score   int
		ordered bool
	}
	best := choice{lowIdx: -1, highIdx: -1}
	for _, ix := range e.indexes {
		ch := choice{ix: ix, lowIdx: -1, highIdx: -1}
		usedCand := map[int]bool{}
		// Longest equality prefix.
		for _, col := range ix.Columns {
			found := -1
			for ci, cand := range cands {
				if cand != nil && !usedCand[ci] && cand.col == col && cand.eq != nil {
					found = ci
					break
				}
			}
			if found < 0 {
				break
			}
			usedCand[found] = true
			ch.eq = append(ch.eq, cands[found].eq)
			ch.eqCands = append(ch.eqCands, found)
		}
		// Range on the next index column: a lower and an upper bound may
		// come from different conjuncts (col >= ? AND col < ?).
		if len(ch.eq) < len(ix.Columns) {
			next := ix.Columns[len(ch.eq)]
			for ci, cand := range cands {
				if cand == nil || usedCand[ci] || cand.col != next || cand.eq != nil {
					continue
				}
				took := false
				if cand.low != nil && ch.lowIdx < 0 {
					ch.lowIdx = ci
					took = true
				}
				if cand.high != nil && ch.highIdx < 0 {
					// A BETWEEN candidate supplies both bounds at once.
					if cand.low == nil || ch.lowIdx == ci {
						ch.highIdx = ci
						took = true
					}
				}
				if took {
					usedCand[ci] = true
				}
			}
		}
		ch.score = len(ch.eq) * 4
		if ch.lowIdx >= 0 {
			ch.score++
		}
		if ch.highIdx >= 0 {
			ch.score++
		}
		// Interesting order: do the index columns after the equality prefix
		// match the requested order?
		if orderOK && indexDeliversOrder(ix.Columns[len(ch.eq):], orderCols) {
			ch.ordered = true
			ch.score++
		}
		if ch.score > best.score || (best.ix == nil && ch.score > 0) {
			best = ch
		}
	}

	if best.ix == nil || best.score == 0 {
		// Pure order-driven index use: a full scan of an index whose prefix
		// matches the order still beats an explicit sort.
		if orderOK {
			for _, ix := range e.indexes {
				if indexDeliversOrder(ix.Columns, orderCols) {
					return &IndexScan{Table: t, Alias: alias, Index: ix, Filters: conjuncts, Desc: desc}
				}
			}
		}
		return &SeqScan{Table: t, Alias: alias, Filters: conjuncts}
	}

	scan := &IndexScan{Table: t, Alias: alias, Index: best.ix, Eq: best.eq, Desc: best.ordered && desc}
	consumed := map[int]bool{}
	for _, ci := range best.eqCands {
		consumed[ci] = true
	}
	if best.lowIdx >= 0 {
		cand := cands[best.lowIdx]
		scan.Low, scan.LowExcl = cand.low, cand.lowEx
		if cand.exact && (cand.high == nil || best.highIdx == best.lowIdx) {
			consumed[best.lowIdx] = true
		}
	}
	if best.highIdx >= 0 {
		cand := cands[best.highIdx]
		scan.High, scan.HighExcl = cand.high, cand.highEx
		if cand.exact && cand.low == nil {
			consumed[best.highIdx] = true
		}
	}
	for ci, c := range conjuncts {
		if !consumed[ci] {
			scan.Filters = append(scan.Filters, c)
		}
	}
	return scan
}

// resolveOrderHint maps the leading ORDER BY items that are plain columns of
// this table to column indexes, with their shared direction; ok is false when
// there are none or they mix directions (an index scan runs one way).
func resolveOrderHint(items []sqlparse.OrderItem, schema expr.Schema) (cols []int, desc, ok bool) {
	for _, it := range items {
		c, isCol := it.Expr.(*expr.ColRef)
		if !isCol {
			break
		}
		idx, err := schema.Find(c.Table, c.Column)
		if err != nil {
			break
		}
		if it.Desc != items[0].Desc {
			return nil, false, false
		}
		cols = append(cols, idx)
	}
	return cols, len(cols) > 0 && items[0].Desc, len(cols) > 0
}

// indexDeliversOrder reports whether scanning index columns (after any
// equality prefix) yields rows ordered by orderCols.
func indexDeliversOrder(remaining []int, orderCols []int) bool {
	if len(orderCols) == 0 || len(orderCols) > len(remaining) {
		return false
	}
	for i, oc := range orderCols {
		if remaining[i] != oc {
			return false
		}
	}
	return true
}
