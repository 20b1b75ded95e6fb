package plan

import (
	"fmt"

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
func planDMLScan(pc Context, ref sqlparse.TableRef, where expr.Expr) (*catalog.Table, Node, error) {
	t := pc.Table(ref.Table)
	if t == nil {
		return nil, nil, fmt.Errorf("no such table %s", ref.Table)
	}
	schema := tableSchema(t, ref.Name(), true)
	var conjuncts []expr.Expr
	if where != nil {
		conjuncts = splitConjuncts(expr.Clone(where))
		for _, c := range conjuncts {
			if err := expr.Resolve(c, schema); err != nil {
				return nil, nil, err
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
	return t, access, nil
}

func planUpdate(pc Context, s *sqlparse.Update) (*UpdatePlan, error) {
	t, scan, err := planDMLScan(pc, s.Table, s.Where)
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
	return p, nil
}

func planDelete(pc Context, s *sqlparse.Delete) (*DeletePlan, error) {
	t, scan, err := planDMLScan(pc, s.Table, s.Where)
	if err != nil {
		return nil, err
	}
	return &DeletePlan{Table: t, Scan: scan}, nil
}
