package plan

import (
	"fmt"
	"slices"

	"ordxml/internal/sqldb/catalog"
	"ordxml/internal/sqldb/expr"
	"ordxml/internal/sqldb/sqlparse"
)

func planInsert(pc Context, s *sqlparse.Insert) (*InsertPlan, error) {
	t := pc.Table(s.Table)
	if t == nil {
		return nil, fmt.Errorf("no such table %s", s.Table)
	}
	var cols []int
	if len(s.Columns) == 0 {
		cols = make([]int, len(t.Columns))
		for i := range cols {
			cols[i] = i
		}
	} else {
		cols = make([]int, len(s.Columns))
		seen := map[int]bool{}
		for i, name := range s.Columns {
			idx := t.ColumnIndex(name)
			if idx < 0 {
				return nil, fmt.Errorf("table %s has no column %s", t.Name, name)
			}
			if seen[idx] {
				return nil, fmt.Errorf("column %s mentioned twice", name)
			}
			seen[idx] = true
			cols[i] = idx
		}
	}
	for ri, row := range s.Rows {
		if len(row) != len(cols) {
			return nil, fmt.Errorf("row %d has %d values, want %d", ri+1, len(row), len(cols))
		}
		for _, e := range row {
			if !isConstExpr(e) {
				return nil, fmt.Errorf("INSERT values must be constant, got %s", e)
			}
		}
	}
	return &InsertPlan{Table: t, Columns: cols, Rows: s.Rows}, nil
}

// planDMLScan builds the row-producing scan for UPDATE/DELETE: the table's
// rows (with the hidden _rid column) filtered by the WHERE clause, using an
// index when one matches.
func planDMLScan(pc Context, ref sqlparse.TableRef, where expr.Expr) (*catalog.Table, Node, []expr.Expr, error) {
	t := pc.Table(ref.Table)
	if t == nil {
		return nil, nil, nil, fmt.Errorf("no such table %s", ref.Table)
	}
	schema := tableSchema(t, ref.Name(), true)
	var conjuncts []expr.Expr
	if where != nil {
		conjuncts = splitConjuncts(expr.Clone(where))
		for _, c := range conjuncts {
			if err := expr.Resolve(c, schema); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	entry := tableEntry{ref: ref, table: t, indexes: pc.TableIndexes(t)}
	access := buildAccess(entry, conjuncts, nil)
	switch a := access.(type) {
	case *SeqScan:
		a.EmitRID = true
	case *IndexScan:
		a.EmitRID = true
	}
	return t, access, conjuncts, nil
}

func planUpdate(pc Context, s *sqlparse.Update) (*UpdatePlan, error) {
	t, scan, conjuncts, err := planDMLScan(pc, s.Table, s.Where)
	if err != nil {
		return nil, err
	}
	schema := tableSchema(t, s.Table.Name(), true)
	p := &UpdatePlan{Table: t, Scan: scan}
	seen := map[int]bool{}
	for _, set := range s.Sets {
		idx := t.ColumnIndex(set.Column)
		if idx < 0 {
			return nil, fmt.Errorf("table %s has no column %s", t.Name, set.Column)
		}
		if seen[idx] {
			return nil, fmt.Errorf("column %s assigned twice", set.Column)
		}
		seen[idx] = true
		val := expr.Clone(set.Value)
		if err := expr.Resolve(val, schema); err != nil {
			return nil, err
		}
		p.SetCols = append(p.SetCols, idx)
		p.SetExprs = append(p.SetExprs, val)
	}
	if len(p.SetCols) == 1 {
		p.ShiftDelta = shiftDelta(pc.TableIndexes(t), p.SetCols[0], p.SetExprs[0], conjuncts)
	}
	return p, nil
}

// shiftDelta returns the delta of an assignment to column col that keeps
// the order of every index holding col once the delta is positive — `col +
// delta`, or a function registered with expr.RegisterIncreasing applied to
// col — or nil when e is no such assignment or the WHERE conjuncts read a
// column one of those indexes does not hold (or none holds col). The delta
// and any other argument must be constants.
func shiftDelta(indexes []*catalog.Index, col int, e expr.Expr, conjuncts []expr.Expr) expr.Expr {
	isCol := func(e expr.Expr) bool {
		c, ok := e.(*expr.ColRef)
		return ok && c.Idx == col
	}
	var delta expr.Expr
	switch x := e.(type) {
	case *expr.Binary:
		if x.Op == expr.OpAdd && isCol(x.L) && isConstExpr(x.R) {
			delta = x.R
		}
	case *expr.Call:
		d, ok := expr.IncreasingDelta(x.Name)
		if !ok || d >= len(x.Args) || !isCol(x.Args[0]) {
			return nil
		}
		for _, a := range x.Args[1:] {
			if !isConstExpr(a) {
				return nil
			}
		}
		delta = x.Args[d]
	}
	if delta == nil {
		return nil
	}
	holding := 0
	for _, ix := range indexes {
		if !slices.Contains(ix.Columns, col) {
			continue
		}
		holding++
		for _, c := range conjuncts {
			if !expr.Walk(c, func(n expr.Expr) bool {
				r, ok := n.(*expr.ColRef)
				return !ok || slices.Contains(ix.Columns, r.Idx)
			}) {
				return nil
			}
		}
	}
	if holding == 0 {
		return nil
	}
	return delta
}

func planDelete(pc Context, s *sqlparse.Delete) (*DeletePlan, error) {
	t, scan, _, err := planDMLScan(pc, s.Table, s.Where)
	if err != nil {
		return nil, err
	}
	return &DeletePlan{Table: t, Scan: scan}, nil
}
