package plan

import (
	"fmt"

	"ordxml/internal/sqldb/catalog"
	"ordxml/internal/sqldb/expr"
	"ordxml/internal/sqldb/sqlparse"
	"ordxml/internal/sqldb/sqltypes"
)

// Context is the planner's window onto the schema: either the live
// *catalog.Catalog (writer side, under the engine's write lock) or a
// published *catalog.View (lock-free readers planning against a snapshot).
// Planning must go through it rather than reading catalog objects directly,
// because index lists and row counts may change under concurrent DDL/DML.
type Context interface {
	Table(name string) *catalog.Table
	TableIndexes(t *catalog.Table) []*catalog.Index
	TableRows(t *catalog.Table) int
	// IndexCount returns the exact number of entries of ix in a range (an
	// equality prefix, then an optional range on the next column), counted
	// index-only. It is the planner's one cardinality source.
	IndexCount(t *catalog.Table, ix *catalog.Index, eq []sqltypes.Value, low, high *sqltypes.Value, lowExcl, highExcl bool) int
}

// Sampler is a Context that can also run a plan on the snapshot being
// planned. Planned against one, an inner join picks its join order by
// measured cost (joinorder.go); against a bare Context — the writer-side
// catalog — it joins in FROM order.
type Sampler interface {
	Context
	// Sample runs n to its end with no parameters bound and returns every
	// plan node's actual output rows. A sample run is not a statement: it
	// must not count as a query nor move the storage counters.
	Sample(n Node) (map[Node]int64, error)
}

// Plan compiles a parsed statement into an executable plan. The result is a
// Node for SELECT and one of InsertPlan/UpdatePlan/DeletePlan for DML; DDL
// statements are handled directly by the engine facade and rejected here.
func Plan(pc Context, stmt sqlparse.Statement) (any, error) {
	switch s := stmt.(type) {
	case *sqlparse.Select:
		return PlanSelect(pc, s)
	case *sqlparse.Insert:
		return planInsert(pc, s)
	case *sqlparse.Update:
		return planUpdate(pc, s)
	case *sqlparse.Delete:
		return planDelete(pc, s)
	default:
		return nil, fmt.Errorf("cannot plan %T", stmt)
	}
}

// tableEntry is one FROM-clause source: a table with its resolved catalog
// object, or a relation parameter (table nil, no indexes).
type tableEntry struct {
	ref   sqlparse.TableRef
	table *catalog.Table
	// indexes is the table's index list as of the planning context; access
	// paths must use it instead of table.Indexes, which may change under
	// concurrent DDL.
	indexes []*catalog.Index
	// leftOuter marks the table as the nullable side of a LEFT JOIN: WHERE
	// predicates on it cannot be pushed below the join.
	leftOuter bool
	join      *sqlparse.Join // nil for the first table
	offset    int            // column offset in the combined schema
}

// PlanSelect compiles a SELECT statement. The join tree's driver is asked
// for the leading ORDER BY columns it holds; when the tree then delivers the
// whole requested order (see deliveredOrder), the ORDER BY needs no Sort, and
// a MIN or MAX endpoint reads one row.
func PlanSelect(pc Context, s *sqlparse.Select) (Node, error) {
	q, err := newJoinQuery(pc, s)
	if err != nil {
		return nil, err
	}
	var orderHint []sqlparse.OrderItem
	if len(s.GroupBy) == 0 && !s.Distinct {
		orderHint = s.OrderBy
	}
	endpoint, col := minMaxArg(q, s)
	if endpoint != nil {
		orderHint = []sqlparse.OrderItem{{Expr: endpoint.Arg, Desc: endpoint.Name == "MAX"}}
	}
	root, combined, err := q.build(q.chooseOrder(pc), orderHint)
	if err != nil {
		return nil, err
	}
	if want, ok := requestedOrder(s, endpoint, combined, q.fromSchema); ok && hasOrderPrefix(deliveredOrder(pc, root).keys, want) {
		if endpoint != nil {
			root = firstNonNull(root, q.entries[0].table, col)
		} else {
			s = shallowCopyWithoutOrder(s)
		}
	}
	return planProjection(s, root, combined, q.fromSchema)
}

// minMaxArg returns the aggregate of a SELECT whose only aggregate is MIN or
// MAX of a plain column, over one table with no GROUP BY, HAVING or
// DISTINCT, and that column's index in the table; nil otherwise. Such a
// query needs one row: the first of an access path ordered on the column
// (ascending for MIN, descending for MAX).
func minMaxArg(q *joinQuery, s *sqlparse.Select) (*expr.Aggregate, int) {
	if len(q.entries) != 1 || q.entries[0].table == nil || len(s.GroupBy) > 0 || s.Having != nil || s.Distinct {
		return nil, 0
	}
	var agg *expr.Aggregate
	mixed := false
	for _, it := range s.Items {
		if it.Star {
			return nil, 0
		}
		expr.Walk(it.Expr, func(n expr.Expr) bool {
			a, ok := n.(*expr.Aggregate)
			if !ok {
				return true
			}
			mixed = mixed || (agg != nil && a.String() != agg.String())
			agg = a
			return false
		})
	}
	if agg == nil || mixed || (agg.Name != "MIN" && agg.Name != "MAX") {
		return nil, 0
	}
	c, ok := agg.Arg.(*expr.ColRef)
	if !ok {
		return nil, 0
	}
	col, err := q.entries[0].schema().Find(c.Table, c.Column)
	if err != nil {
		return nil, 0
	}
	return agg, col
}

// firstNonNull caps an access path that delivers rows in MIN or MAX order of
// column col at its first row. MIN and MAX ignore NULLs, which sort first in
// an index, so a nullable column's scan filters them out below the cap. The
// aggregate above still turns empty input into its one NULL row.
func firstNonNull(root Node, t *catalog.Table, col int) Node {
	if !t.Columns[col].NotNull {
		scan := root
		for f, ok := scan.(*Filter); ok; f, ok = scan.(*Filter) {
			scan = f.Input
		}
		is := scan.(*IndexScan)
		is.Filters = append(is.Filters, &expr.IsNull{
			X:   &expr.ColRef{Table: is.Alias, Column: t.Columns[col].Name, Idx: col},
			Not: true,
		})
	}
	return &Limit{Input: root, Limit: &expr.Literal{Val: sqltypes.NewInt(1)}}
}

// joinQuery is a SELECT's FROM list with its join conjuncts, resolved once
// against the FROM-order schema; build lays the joins out in any order.
type joinQuery struct {
	entries    []tableEntry // FROM order
	fromSchema expr.Schema
	// conjuncts are WHERE plus the ON conditions of inner joins (for an inner
	// join, ON and WHERE are interchangeable); LEFT JOIN ONs stay attached to
	// their join. refs[i] names the tables conjuncts[i] touches.
	conjuncts []expr.Expr
	refs      []map[string]bool
}

func newJoinQuery(pc Context, s *sqlparse.Select) (*joinQuery, error) {
	entries, err := resolveTables(pc, s)
	if err != nil {
		return nil, err
	}
	q := &joinQuery{entries: entries, fromSchema: combinedSchema(entries)}
	if s.Where != nil {
		q.conjuncts = append(q.conjuncts, splitConjuncts(expr.Clone(s.Where))...)
	}
	for _, e := range entries {
		if e.join != nil && e.join.Kind == sqlparse.JoinInner && e.join.On != nil {
			for _, c := range splitConjuncts(expr.Clone(e.join.On)) {
				// A comma join is an inner join ON TRUE: nothing to evaluate.
				if l, ok := c.(*expr.Literal); !ok || l.Val.Type() != sqltypes.Bool || !l.Val.Bool() {
					q.conjuncts = append(q.conjuncts, c)
				}
			}
		}
	}
	// Resolve every conjunct against the combined schema so it can be
	// classified by the tables it touches.
	for _, c := range q.conjuncts {
		if err := expr.Resolve(c, q.fromSchema); err != nil {
			return nil, err
		}
		q.refs = append(q.refs, referencedTables(c, q.fromSchema))
	}
	return q, nil
}

// build plans the join of the tables at the given FROM positions, left-deep
// in that order, over the conjuncts that touch only those tables; nil means
// all of them in FROM order, over q's conjuncts themselves (the final plan
// may share them: plan trees are read-only). The driver's access path is
// asked for the leading orderHint items that are its own columns. It returns
// the join tree and the layout of its rows.
func (q *joinQuery) build(order []int, orderHint []sqlparse.OrderItem) (root Node, combined expr.Schema, err error) {
	entries, combined := q.entries, q.fromSchema
	conjuncts, refs := q.conjuncts, q.refs
	if order != nil {
		entries = make([]tableEntry, len(order))
		in := map[string]bool{}
		offset := 0
		for i, pos := range order {
			entries[i] = q.entries[pos]
			entries[i].offset = offset
			offset += len(entries[i].schema())
			in[entries[i].ref.Name()] = true
		}
		combined = combinedSchema(entries)
		conjuncts, refs = nil, nil
		for ci, c := range q.conjuncts {
			if !onlyIn(q.refs[ci], in) {
				continue
			}
			c = expr.Clone(c)
			if err := expr.Resolve(c, combined); err != nil {
				return nil, nil, err
			}
			conjuncts, refs = append(conjuncts, c), append(refs, q.refs[ci])
		}
	}
	used := make([]bool, len(conjuncts))

	// Classify single-table conjuncts per table (not yet consumed; the join
	// builder decides where each lands).
	perTable := make([][]int, len(entries))
	for ci := range conjuncts {
		if len(refs[ci]) != 1 {
			continue
		}
		for ti, e := range entries {
			if refs[ci][e.ref.Name()] && !e.leftOuter {
				perTable[ti] = append(perTable[ti], ci)
			}
		}
	}

	// Build the left-deep join tree.
	leftTables := map[string]bool{}
	for ti := range entries {
		e := &entries[ti]
		if ti == 0 {
			local := localConjuncts(conjuncts, perTable[0], e.offset, used)
			root = buildAccess(*e, local, orderHint)
		} else if root, err = buildJoin(root, leftTables, e, perTable[ti], conjuncts, used, combined); err != nil {
			return nil, nil, err
		}
		leftTables[e.ref.Name()] = true
	}

	// Any conjunct not consumed becomes a post-join filter.
	var residual []expr.Expr
	for ci, c := range conjuncts {
		if !used[ci] {
			residual = append(residual, c)
		}
	}
	if len(residual) > 0 {
		root = &Filter{Input: root, Pred: andAll(residual)}
	}
	return root, combined, nil
}

// localConjuncts clones the given conjuncts rebased to a table-local layout
// and marks them used.
func localConjuncts(conjuncts []expr.Expr, idxs []int, offset int, used []bool) []expr.Expr {
	var out []expr.Expr
	for _, ci := range idxs {
		if used[ci] {
			continue
		}
		out = append(out, shiftToLocal([]expr.Expr{conjuncts[ci]}, offset)[0])
		used[ci] = true
	}
	return out
}

// shallowCopyWithoutOrder returns s minus its ORDER BY (the join tree
// already delivers that order).
func shallowCopyWithoutOrder(s *sqlparse.Select) *sqlparse.Select {
	c := *s
	c.OrderBy = nil
	return &c
}

func resolveTables(pc Context, s *sqlparse.Select) ([]tableEntry, error) {
	var entries []tableEntry
	seen := map[string]bool{}
	offset := 0
	add := func(ref sqlparse.TableRef, j *sqlparse.Join) error {
		e := tableEntry{ref: ref, join: j, offset: offset,
			leftOuter: j != nil && j.Kind == sqlparse.JoinLeft}
		if len(ref.Cols) == 0 {
			if e.table = pc.Table(ref.Table); e.table == nil {
				return fmt.Errorf("no such table %s", ref.Table)
			}
			e.indexes = pc.TableIndexes(e.table)
		}
		name := ref.Name()
		if seen[name] {
			return fmt.Errorf("duplicate table name %s in FROM (use an alias)", name)
		}
		seen[name] = true
		entries = append(entries, e)
		offset += len(e.schema())
		return nil
	}
	if err := add(s.From, nil); err != nil {
		return nil, err
	}
	for i := range s.Joins {
		if err := add(s.Joins[i].Table, &s.Joins[i]); err != nil {
			return nil, err
		}
	}
	return entries, nil
}

// schema returns the columns the source contributes to the combined row.
func (e tableEntry) schema() expr.Schema {
	if e.table == nil {
		return (&ParamScan{Alias: e.ref.Alias, Cols: e.ref.Cols}).Schema()
	}
	return tableSchema(e.table, e.ref.Name(), false)
}

func combinedSchema(entries []tableEntry) expr.Schema {
	var s expr.Schema
	for _, e := range entries {
		s = append(s, e.schema()...)
	}
	return s
}

// splitConjuncts flattens a conjunction into its AND-ed parts.
func splitConjuncts(e expr.Expr) []expr.Expr {
	if b, ok := e.(*expr.Binary); ok && b.Op == expr.OpAnd {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []expr.Expr{e}
}

func andAll(conjuncts []expr.Expr) expr.Expr {
	out := conjuncts[0]
	for _, c := range conjuncts[1:] {
		out = &expr.Binary{Op: expr.OpAnd, L: out, R: c}
	}
	return out
}

// referencedTables returns the set of table aliases a resolved expression
// touches.
func referencedTables(e expr.Expr, schema expr.Schema) map[string]bool {
	out := map[string]bool{}
	expr.Walk(e, func(n expr.Expr) bool {
		if c, ok := n.(*expr.ColRef); ok {
			out[schema[c.Idx].Table] = true
		}
		return true
	})
	return out
}

// isConstExpr reports whether e is row-independent (no columns, no
// aggregates). Parameters are allowed: they are bound before execution.
func isConstExpr(e expr.Expr) bool {
	ok := true
	expr.Walk(e, func(n expr.Expr) bool {
		switch n.(type) {
		case *expr.ColRef, *expr.Aggregate:
			ok = false
			return false
		}
		return true
	})
	return ok
}

// refsOnly reports whether every column in e belongs to the allowed tables.
func refsOnly(e expr.Expr, schema expr.Schema, allowed map[string]bool) bool {
	ok := true
	expr.Walk(e, func(n expr.Expr) bool {
		if c, isCol := n.(*expr.ColRef); isCol {
			if !allowed[schema[c.Idx].Table] {
				ok = false
				return false
			}
		}
		return true
	})
	return ok
}

// buildJoin attaches the next table to the accumulated left side. It tries,
// in order: an index nested-loop join (correlated index lookup on the new
// table — the workhorse for parent/child and sibling-range joins), a hash
// join on equality keys, and finally a nested-loop join.
func buildJoin(left Node, leftTables map[string]bool, e *tableEntry, perTable []int,
	conjuncts []expr.Expr, used []bool, combined expr.Schema) (Node, error) {

	rightName := e.ref.Name()
	leftWidth := len(left.Schema())

	// For LEFT JOIN the ON predicate is the join condition; WHERE conjuncts
	// stay above and per-table pushdown was disabled.
	if e.leftOuter {
		right := buildAccess(*e, nil, nil)
		on := expr.Clone(e.join.On)
		if err := expr.Resolve(on, combined); err != nil {
			return nil, err
		}
		if lk, rk, residual, ok := equiKeys(splitConjuncts(on), leftTables, rightName, combined, nil); ok {
			return &HashJoin{Left: left, Right: right,
				LeftKeys: shiftToLocal(lk, 0), RightKeys: shiftToLocal(rk, leftWidth),
				Residual: residual, Outer: true}, nil
		}
		return &NLJoin{Left: left, Right: right, On: on, Outer: true}, nil
	}

	// Cross conjuncts connecting the new table to the left side (or constants
	// over the new table alone are in perTable).
	var cross []int
	for ci, c := range conjuncts {
		if used[ci] {
			continue
		}
		refs := referencedTables(c, combined)
		if !refs[rightName] {
			continue
		}
		ok := true
		for r := range refs {
			if r != rightName && !leftTables[r] {
				ok = false
			}
		}
		if ok && len(refs) > 1 {
			cross = append(cross, ci)
		}
	}

	// 1. Correlated index nested-loop join.
	if n := tryIndexNLJoin(left, e, perTable, cross, conjuncts, used, combined); n != nil {
		return n, nil
	}

	// 2. Hash join on equality keys.
	local := localConjuncts(conjuncts, perTable, e.offset, used)
	right := buildAccess(*e, local, nil)
	var candidates []expr.Expr
	var candidateIdx []int
	for _, ci := range cross {
		if !used[ci] {
			candidates = append(candidates, conjuncts[ci])
			candidateIdx = append(candidateIdx, ci)
		}
	}
	if lk, rk, residual, ok := equiKeys(candidates, leftTables, rightName, combined,
		func(i int) { used[candidateIdx[i]] = true }); ok {
		return &HashJoin{Left: left, Right: right,
			LeftKeys: shiftToLocal(lk, 0), RightKeys: shiftToLocal(rk, leftWidth),
			Residual: residual, Outer: false}, nil
	}

	// 3. Nested loops with whatever predicates exist.
	var on expr.Expr
	if len(candidates) > 0 {
		on = andAll(candidates)
		for _, ci := range candidateIdx {
			used[ci] = true
		}
	}
	return &NLJoin{Left: left, Right: right, On: on, Outer: false}, nil
}

// equiKeys extracts equality key pairs (leftExpr = rightExpr) from conjuncts.
// Non-key conjuncts become the residual. markUsed, when non-nil, is called
// with the index of every consumed conjunct (keys and residual alike).
func equiKeys(conjuncts []expr.Expr, leftTables map[string]bool, rightName string,
	combined expr.Schema, markUsed func(int)) (lk, rk []expr.Expr, residual expr.Expr, ok bool) {

	rightOnly := map[string]bool{rightName: true}
	var rest []expr.Expr
	var restIdx []int
	for i, c := range conjuncts {
		if b, isBin := c.(*expr.Binary); isBin && b.Op == expr.OpEq {
			lrefs := referencedTables(b.L, combined)
			rrefs := referencedTables(b.R, combined)
			switch {
			case len(lrefs) > 0 && len(rrefs) > 0 && onlyIn(lrefs, leftTables) && onlyIn(rrefs, rightOnly):
				lk = append(lk, b.L)
				rk = append(rk, b.R)
				if markUsed != nil {
					markUsed(i)
				}
				continue
			case len(lrefs) > 0 && len(rrefs) > 0 && onlyIn(rrefs, leftTables) && onlyIn(lrefs, rightOnly):
				lk = append(lk, b.R)
				rk = append(rk, b.L)
				if markUsed != nil {
					markUsed(i)
				}
				continue
			}
		}
		rest = append(rest, c)
		restIdx = append(restIdx, i)
	}
	if len(lk) == 0 {
		return nil, nil, nil, false
	}
	if len(rest) > 0 {
		residual = andAll(rest)
		if markUsed != nil {
			for _, i := range restIdx {
				markUsed(i)
			}
		}
	}
	return lk, rk, residual, true
}

func onlyIn(refs map[string]bool, allowed map[string]bool) bool {
	for r := range refs {
		if !allowed[r] {
			return false
		}
	}
	return true
}

// shiftToLocal clones key expressions and rebases their column indexes from
// the combined layout to a node-local layout starting at base.
func shiftToLocal(keys []expr.Expr, base int) []expr.Expr {
	out := make([]expr.Expr, len(keys))
	for i, k := range keys {
		c := expr.Clone(k)
		expr.Walk(c, func(n expr.Expr) bool {
			if cr, ok := n.(*expr.ColRef); ok {
				cr.Idx -= base
			}
			return true
		})
		out[i] = c
	}
	return out
}
