package plan

import (
	"slices"

	"ordxml/internal/sqldb/expr"
	"ordxml/internal/sqldb/sqltypes"
)

// Join order. An inner join of base tables need not run in FROM order: a
// value predicate (`//item[@id = 'item400']` becomes an attribute row with a
// constant tag and value) can drive the join and probe its step table once,
// instead of the step table probing every one of its rows for the predicate.
// Which side should drive depends on the data — 2,406 `name` elements
// outnumber 6 `person`s — so the planner measures, on the snapshot it plans
// against, each connected left-deep order the index nested-loop builder can
// make:
//
//   - the driver's rows: the exact index-only count of its access range
//     (IndexCount), or the table's rows for a sequential scan;
//   - every later join's rows examined per driver row: the order runs on the
//     driver's first sampleRows range entries (Sampler.Sample), each join's
//     index probes and the entries they visit are read off the operators'
//     actual rows, and the sum is extrapolated to the whole range.
//
// An order's cost is driver rows + driver rows × examined per driver row, in
// rows examined. The search extends orders one table at a time and drops an
// order as soon as its running cost reaches the bound to beat, which starts
// at FROM order's cost over tieFactor. Invariants:
//
//   - ties keep FROM order: an order must be estimated below 1/tieFactor of
//     FROM order's cost to replace it, so plans whose FROM order is cheapest
//     are the plans of a planner without this file, byte for byte;
//   - relation parameters stay first: a statement with one (or with any
//     parameter, LEFT JOIN, or a single table) joins in FROM order;
//   - a driver whose range covers its whole table never replaces FROM
//     order's driver;
//   - plans are cached per SQL text and catalog version, so sampling is paid
//     once per plan-cache miss, and an estimate made stale by later writes
//     can cost speed but never correctness — every order computes the same
//     rows.

// sampleRows is how many entries of a candidate driver's range a sample run
// joins through the rest of the order.
const sampleRows = 32

// tieFactor is how much cheaper than FROM order an order must look to
// replace it. A 32-row sample cannot resolve finer differences, and a plan
// that flipped on them would differ between plan-cache misses for nothing.
const tieFactor = 2

// maxReorderTables bounds the orders searched; wider joins keep FROM order.
const maxReorderTables = 6

// chooseOrder returns the FROM positions in the order to join them, or nil
// for FROM order.
func (q *joinQuery) chooseOrder(pc Context) []int {
	sp, ok := pc.(Sampler)
	if !ok || !q.reorderable() {
		return nil
	}
	n := len(q.entries)
	fromOrder := make([]int, n)
	for i := range fromOrder {
		fromOrder[i] = i
	}
	fromCost, ok := q.price(sp, fromOrder)
	if !ok {
		return nil
	}
	bound := fromCost / tieFactor
	var best []int
	var extend func(order []int)
	extend = func(order []int) {
		cost, ok := q.price(sp, order)
		if !ok || cost >= bound {
			return
		}
		if len(order) == 1 && order[0] != 0 &&
			cost >= float64(sp.TableRows(q.entries[order[0]].table)) {
			return // a scan of the whole table does not replace FROM order's driver
		}
		if len(order) == n {
			best, bound = slices.Clone(order), cost
			return
		}
		for next := range q.entries {
			if !slices.Contains(order, next) && q.connected(order, next) {
				extend(append(order, next))
			}
		}
	}
	for driver := range q.entries {
		extend(append(make([]int, 0, n), driver))
	}
	return best
}

// reorderable reports whether the statement is an inner join of two to
// maxReorderTables base tables with no parameter in its conditions: the
// shapes a sample can run and a cached plan serves for any execution.
func (q *joinQuery) reorderable() bool {
	if len(q.entries) < 2 || len(q.entries) > maxReorderTables {
		return false
	}
	for _, e := range q.entries {
		if e.table == nil || e.leftOuter {
			return false
		}
	}
	for _, c := range q.conjuncts {
		if hasParam(c) {
			return false
		}
	}
	return true
}

// connected reports whether some conjunct links table next to the tables of
// order and touches no other table.
func (q *joinQuery) connected(order []int, next int) bool {
	allowed := map[string]bool{q.entries[next].ref.Name(): true}
	for _, pos := range order {
		allowed[q.entries[pos].ref.Name()] = true
	}
	for _, refs := range q.refs {
		if len(refs) > 1 && refs[q.entries[next].ref.Name()] && onlyIn(refs, allowed) {
			return true
		}
	}
	return false
}

// price estimates the rows the join of order's tables examines (see the file
// comment). ok is false when the order is not one scan under a chain of
// index nested-loop joins, or its sample run failed.
func (q *joinQuery) price(sp Sampler, order []int) (cost float64, ok bool) {
	root, _, err := q.build(order, nil)
	if err != nil {
		return 0, false
	}
	if f, isFilter := root.(*Filter); isFilter {
		root = f.Input // a residual filter examines no stored row
	}
	sample, limit, joins, ok := sampleTree(root)
	if !ok {
		return 0, false
	}
	driver := float64(scanRows(sp, limit.Input))
	if len(joins) == 0 {
		return driver, true
	}
	rows, err := sp.Sample(sample)
	if err != nil || rows[limit] == 0 {
		return driver, err == nil
	}
	var examined int64
	for _, j := range joins {
		examined += rows[j.Left] + rows[j] // index probes + entries they visit
	}
	return driver + driver*float64(examined)/float64(rows[limit]), true
}

// sampleTree rewrites a chain of index nested-loop joins over one scan for a
// sample run: the scan reads only its first sampleRows entries, and every
// operator's filters move into a Filter above it, so an operator's actual
// rows are the entries it examined. It returns the rewritten tree, the Limit
// over the scan and the joins bottom-up; ok is false for any other shape.
func sampleTree(n Node) (root Node, limit *Limit, joins []*IndexNLJoin, ok bool) {
	switch x := n.(type) {
	case *IndexNLJoin:
		left, limit, joins, ok := sampleTree(x.Left)
		if !ok {
			return nil, nil, nil, false
		}
		j := *x
		j.Left, j.Filters = left, nil
		return withFilters(&j, x.Filters), limit, append(joins, &j), true
	case *IndexScan:
		s := *x
		s.Filters = nil
		return sampleScan(&s, x.Filters)
	case *SeqScan:
		s := *x
		s.Filters = nil
		return sampleScan(&s, x.Filters)
	}
	return nil, nil, nil, false
}

// sampleScan caps an unfiltered scan at sampleRows entries and applies its
// filters above the cap.
func sampleScan(scan Node, filters []expr.Expr) (Node, *Limit, []*IndexNLJoin, bool) {
	limit := &Limit{Input: scan, Limit: &expr.Literal{Val: sqltypes.NewInt(sampleRows)}}
	return withFilters(limit, filters), limit, nil, true
}

func withFilters(n Node, filters []expr.Expr) Node {
	if len(filters) == 0 {
		return n
	}
	return &Filter{Input: n, Pred: andAll(filters)}
}

// scanRows is the number of stored rows a scan visits before its filters: the
// table for a sequential scan, the counted index range for an index scan.
func scanRows(pc Context, n Node) int {
	switch x := n.(type) {
	case *SeqScan:
		return pc.TableRows(x.Table)
	case *IndexScan:
		return indexRangeRows(pc, x)
	}
	return 0
}

// indexRangeRows counts the index entries an IndexScan's bounds select, on
// the snapshot being planned. A bound not known at plan time (a parameter)
// ends the part counted: the count is then an upper bound.
func indexRangeRows(pc Context, s *IndexScan) int {
	colType := func(i int) sqltypes.Type { return s.Table.Columns[s.Index.Columns[i]].Type }
	var eq []sqltypes.Value
	for i, e := range s.Eq {
		v, ok := constValue(e, colType(i))
		if !ok {
			return pc.IndexCount(s.Table, s.Index, eq, nil, nil, false, false)
		}
		if v.IsNull() {
			return 0 // NULL never compares equal: the scan is empty
		}
		eq = append(eq, v)
	}
	bound := func(e expr.Expr) (*sqltypes.Value, bool) {
		if e == nil {
			return nil, true
		}
		v, ok := constValue(e, colType(len(eq)))
		if !ok {
			return nil, true
		}
		return &v, !v.IsNull()
	}
	low, lowOK := bound(s.Low)
	high, highOK := bound(s.High)
	if !lowOK || !highOK {
		return 0 // a NULL bound: the scan is empty
	}
	return pc.IndexCount(s.Table, s.Index, eq, low, high, s.LowExcl, s.HighExcl)
}

// constValue evaluates a parameter-free constant expression as a value of
// type t; ok is false when e needs a row or a parameter, or does not coerce.
func constValue(e expr.Expr, t sqltypes.Type) (sqltypes.Value, bool) {
	if !isConstExpr(e) || hasParam(e) {
		return sqltypes.Value{}, false
	}
	v, err := expr.Eval(e, &expr.Env{})
	if err != nil {
		return sqltypes.Value{}, false
	}
	if v.IsNull() {
		return v, true
	}
	cv, err := sqltypes.Coerce(v, t)
	return cv, err == nil
}

func hasParam(e expr.Expr) bool {
	found := false
	expr.Walk(e, func(n expr.Expr) bool {
		if _, ok := n.(*expr.Param); ok {
			found = true
		}
		return !found
	})
	return found
}
