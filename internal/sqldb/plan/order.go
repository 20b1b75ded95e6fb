package plan

import (
	"slices"

	"ordxml/internal/sqldb/catalog"
	"ordxml/internal/sqldb/expr"
	"ordxml/internal/sqldb/sqlparse"
)

// Interesting orders (Selinger et al., SIGMOD 1979). Every plan node
// delivers its rows in some order, possibly none; an ORDER BY that is a
// prefix of the order of the plan's join tree needs no Sort.
//
//   - An IndexScan delivers its index's columns after the equality prefix,
//     all ascending or, scanning backwards, all descending.
//   - An IndexNLJoin delivers its outer order, then the inner index's columns
//     after the probe's equality prefix: each outer row's matches come out of
//     one index range, in key order. Appending the inner order is only sound
//     when the outer order is strict — no two outer rows tie on it — or the
//     matches of two tied outer rows would interleave (Simmen et al.,
//     "Fundamental techniques for order optimization", SIGMOD 1996).
//   - A Filter keeps its input's order. (A Project does too, but ORDER BY is
//     matched on the join tree below it.)
//   - A SeqScan, ParamScan, HashJoin or NestedLoopJoin delivers none.
//
// An index scan's order is strict when its columns — the equality-bound
// prefix plus the ordered rest — include every column of some UNIQUE index
// of the table: rows that tie on the ordered columns agree on the bound ones
// too, so they would share a unique key. A unique index admits one NULL per
// key like any other value, so a NULL does not break that.

// orderKey is one column of a delivered order: a position in the node's
// schema and its direction.
type orderKey struct {
	col  int
	desc bool
}

// ordering is the order a plan node delivers its rows in. strict reports
// that no two rows tie on all of keys.
type ordering struct {
	keys   []orderKey
	strict bool
}

// deliveredOrder returns the order n's rows come in; pc supplies the index
// lists that decide strictness.
func deliveredOrder(pc Context, n Node) ordering {
	switch x := n.(type) {
	case *Filter:
		return deliveredOrder(pc, x.Input)
	case *IndexScan:
		return indexOrder(pc, x.Table, x.Index, len(x.Eq), 0, x.Desc)
	case *IndexNLJoin:
		outer := deliveredOrder(pc, x.Left)
		if !outer.strict {
			return ordering{keys: outer.keys}
		}
		inner := indexOrder(pc, x.Table, x.Index, len(x.Eq), len(x.Left.Schema()), false)
		return ordering{keys: slices.Concat(outer.keys, inner.keys), strict: inner.strict}
	}
	return ordering{}
}

// indexOrder is the order of one range of index ix past an equality prefix
// of eq columns, with table columns placed from offset in the node's schema.
func indexOrder(pc Context, t *catalog.Table, ix *catalog.Index, eq, offset int, desc bool) ordering {
	o := ordering{keys: make([]orderKey, 0, len(ix.Columns)-eq)}
	for _, c := range ix.Columns[eq:] {
		o.keys = append(o.keys, orderKey{col: offset + c, desc: desc})
	}
	for _, u := range pc.TableIndexes(t) {
		if u.Unique && !slices.ContainsFunc(u.Columns, func(c int) bool { return !slices.Contains(ix.Columns, c) }) {
			o.strict = true
			break
		}
	}
	return o
}

// requestedOrder resolves the order a SELECT asks of its join tree to
// columns of the tree's rows (layout combined): the ORDER BY items, resolved
// the way the projection resolves them, or the MIN/MAX endpoint's column. ok
// is false when some item is not a plain column, so only a Sort can deliver
// it.
func requestedOrder(s *sqlparse.Select, endpoint *expr.Aggregate, combined, fromSchema expr.Schema) (want []orderKey, ok bool) {
	if endpoint != nil {
		c := endpoint.Arg.(*expr.ColRef)
		col, err := combined.Find(c.Table, c.Column)
		return []orderKey{{col: col, desc: endpoint.Name == "MAX"}}, err == nil
	}
	if len(s.OrderBy) == 0 || len(s.GroupBy) > 0 || s.Having != nil || s.Distinct {
		return nil, false
	}
	items, names, err := expandItems(s, fromSchema)
	if err != nil {
		return nil, false
	}
	for _, it := range items {
		if expr.HasAggregate(it) || expr.Resolve(it, combined) != nil {
			return nil, false
		}
	}
	for _, oi := range s.OrderBy {
		k, err := orderKeyExpr(oi.Expr, names, items, combined, nil)
		c, isCol := k.(*expr.ColRef)
		if err != nil || !isCol {
			return nil, false
		}
		want = append(want, orderKey{col: c.Idx, desc: oi.Desc})
	}
	return want, true
}

// hasOrderPrefix reports whether delivered begins with want.
func hasOrderPrefix(delivered, want []orderKey) bool {
	return len(want) <= len(delivered) && slices.Equal(delivered[:len(want)], want)
}
