package plan

import (
	"fmt"
	"strings"

	"ordxml/internal/sqldb/expr"
	"ordxml/internal/sqldb/sqlparse"
)

// planProjection builds the upper part of a SELECT plan: aggregation,
// projection, DISTINCT, ORDER BY (with hidden sort keys), and LIMIT. `*`
// expands over fromSchema, the FROM-order layout, whatever order the joins
// below lay their rows out in (inputSchema).
func planProjection(s *sqlparse.Select, input Node, inputSchema, fromSchema expr.Schema) (Node, error) {
	items, names, err := expandItems(s, fromSchema)
	if err != nil {
		return nil, err
	}

	hasAgg := len(s.GroupBy) > 0
	for _, it := range items {
		if expr.HasAggregate(it) {
			hasAgg = true
		}
	}
	if s.Having != nil {
		hasAgg = true
	}

	var projExprs []expr.Expr
	var projInput Node
	var aggInfo *aggregateInfo
	if hasAgg {
		projInput, projExprs, aggInfo, err = planAggregate(s, input, inputSchema, items)
		if err != nil {
			return nil, err
		}
	} else {
		for _, it := range items {
			if err := expr.Resolve(it, inputSchema); err != nil {
				return nil, err
			}
		}
		projInput, projExprs = input, items
	}

	// ORDER BY: prefer referencing a visible output column; otherwise append
	// the key expression as a hidden projection column.
	visible := len(projExprs)
	var sortKeys []SortKey
	for _, oi := range s.OrderBy {
		keyExpr, err := orderKeyExpr(oi.Expr, names, projExprs[:visible], inputSchema, aggInfo)
		if err != nil {
			return nil, err
		}
		idx := -1
		for i := 0; i < visible; i++ {
			if equalExpr(keyExpr, projExprs[i]) {
				idx = i
				break
			}
		}
		if idx < 0 {
			if s.Distinct {
				return nil, fmt.Errorf("ORDER BY expression %s must appear in the SELECT DISTINCT list", oi.Expr)
			}
			projExprs = append(projExprs, keyExpr)
			idx = len(projExprs) - 1
		}
		sortKeys = append(sortKeys, SortKey{Col: idx, Desc: oi.Desc})
	}

	projNames := make([]string, len(projExprs))
	copy(projNames, names)
	for i := visible; i < len(projExprs); i++ {
		projNames[i] = fmt.Sprintf("$hidden%d", i-visible)
	}
	var root Node = &Project{Input: projInput, Exprs: projExprs, Names: projNames, Hidden: len(projExprs) - visible}

	if s.Distinct {
		root = &Distinct{Input: root}
	}
	if len(sortKeys) > 0 {
		root = &Sort{Input: root, Keys: sortKeys}
	}
	if len(projExprs) > visible {
		root = &Trim{Input: root, Keep: visible}
	}
	if s.Limit != nil || s.Offset != nil {
		if s.Limit != nil && !isConstExpr(s.Limit) {
			return nil, fmt.Errorf("LIMIT must be constant")
		}
		if s.Offset != nil && !isConstExpr(s.Offset) {
			return nil, fmt.Errorf("OFFSET must be constant")
		}
		root = &Limit{Input: root, Limit: s.Limit, Offset: s.Offset}
	}
	return root, nil
}

// expandItems expands `*` and `t.*` over schema, returning cloned item
// expressions and their output names; the caller resolves them against the
// plan's row layout.
func expandItems(s *sqlparse.Select, schema expr.Schema) ([]expr.Expr, []string, error) {
	var items []expr.Expr
	var names []string
	for _, it := range s.Items {
		if it.Star {
			matched := false
			for i, col := range schema {
				if it.StarTable != "" && !strings.EqualFold(col.Table, it.StarTable) {
					continue
				}
				items = append(items, &expr.ColRef{Table: col.Table, Column: col.Column, Idx: i})
				names = append(names, col.Column)
				matched = true
			}
			if !matched {
				return nil, nil, fmt.Errorf("no table %s for %s.*", it.StarTable, it.StarTable)
			}
			continue
		}
		e := expr.Clone(it.Expr)
		items = append(items, e)
		name := it.Alias
		if name == "" {
			name = e.String()
		}
		names = append(names, name)
	}
	return items, names, nil
}

// aggregateInfo carries the aggregate layout for ORDER BY rewriting.
type aggregateInfo struct {
	groupBy []expr.Expr
	aggs    []*expr.Aggregate
}

// planAggregate builds the HashAggregate node and rewrites the item
// expressions to reference its output.
func planAggregate(s *sqlparse.Select, input Node, inputSchema expr.Schema, items []expr.Expr) (Node, []expr.Expr, *aggregateInfo, error) {
	groupBy := make([]expr.Expr, len(s.GroupBy))
	for i, g := range s.GroupBy {
		groupBy[i] = expr.Clone(g)
		if err := expr.Resolve(groupBy[i], inputSchema); err != nil {
			return nil, nil, nil, err
		}
	}
	var having expr.Expr
	if s.Having != nil {
		having = expr.Clone(s.Having)
	}

	// Resolve items/having against the input schema (aggregate arguments
	// reference input columns), then collect the distinct aggregates.
	var aggs []*expr.Aggregate
	collect := func(e expr.Expr) error {
		if err := expr.Resolve(e, inputSchema); err != nil {
			return err
		}
		expr.Walk(e, func(n expr.Expr) bool {
			if a, ok := n.(*expr.Aggregate); ok {
				for _, known := range aggs {
					if known.String() == a.String() {
						return true
					}
				}
				aggs = append(aggs, a)
			}
			return true
		})
		return nil
	}
	for _, it := range items {
		if err := collect(it); err != nil {
			return nil, nil, nil, err
		}
	}
	if having != nil {
		if err := collect(having); err != nil {
			return nil, nil, nil, err
		}
	}

	node := &HashAggregate{
		Input:   input,
		GroupBy: groupBy,
		Aggs:    aggs,
		Global:  len(groupBy) == 0,
	}
	if having != nil {
		rewritten, err := rewriteAgg(having, groupBy, aggs)
		if err != nil {
			return nil, nil, nil, err
		}
		node.Having = rewritten
	}
	out := make([]expr.Expr, len(items))
	for i, it := range items {
		rewritten, err := rewriteAgg(it, groupBy, aggs)
		if err != nil {
			return nil, nil, nil, err
		}
		out[i] = rewritten
	}
	return node, out, &aggregateInfo{groupBy: groupBy, aggs: aggs}, nil
}

// equalExpr compares resolved expressions: column references by index,
// everything else structurally via String.
func equalExpr(a, b expr.Expr) bool {
	ca, aok := a.(*expr.ColRef)
	cb, bok := b.(*expr.ColRef)
	if aok && bok {
		return ca.Idx == cb.Idx
	}
	if aok != bok {
		return false
	}
	return a.String() == b.String()
}

// rewriteAgg maps an expression over input rows to one over the aggregate
// output layout (group-by values, then aggregate results). Any column
// reference that is not part of a GROUP BY expression is an error.
func rewriteAgg(e expr.Expr, groupBy []expr.Expr, aggs []*expr.Aggregate) (expr.Expr, error) {
	for gi, g := range groupBy {
		if equalExpr(e, g) {
			return &expr.ColRef{Column: g.String(), Idx: gi}, nil
		}
	}
	switch x := e.(type) {
	case *expr.Aggregate:
		for ai, a := range aggs {
			if a.String() == x.String() {
				return &expr.ColRef{Column: a.String(), Idx: len(groupBy) + ai}, nil
			}
		}
		return nil, fmt.Errorf("internal: aggregate %s not collected", x)
	case *expr.ColRef:
		return nil, fmt.Errorf("column %s must appear in GROUP BY or inside an aggregate", x)
	case *expr.Literal, *expr.Param:
		return e, nil
	case *expr.Unary:
		sub, err := rewriteAgg(x.X, groupBy, aggs)
		if err != nil {
			return nil, err
		}
		return &expr.Unary{Op: x.Op, X: sub}, nil
	case *expr.Binary:
		l, err := rewriteAgg(x.L, groupBy, aggs)
		if err != nil {
			return nil, err
		}
		r, err := rewriteAgg(x.R, groupBy, aggs)
		if err != nil {
			return nil, err
		}
		return &expr.Binary{Op: x.Op, L: l, R: r}, nil
	case *expr.Between:
		xx, err := rewriteAgg(x.X, groupBy, aggs)
		if err != nil {
			return nil, err
		}
		lo, err := rewriteAgg(x.Lo, groupBy, aggs)
		if err != nil {
			return nil, err
		}
		hi, err := rewriteAgg(x.Hi, groupBy, aggs)
		if err != nil {
			return nil, err
		}
		return &expr.Between{X: xx, Lo: lo, Hi: hi, Not: x.Not}, nil
	case *expr.In:
		xx, err := rewriteAgg(x.X, groupBy, aggs)
		if err != nil {
			return nil, err
		}
		list := make([]expr.Expr, len(x.List))
		for i, it := range x.List {
			if list[i], err = rewriteAgg(it, groupBy, aggs); err != nil {
				return nil, err
			}
		}
		return &expr.In{X: xx, List: list, Not: x.Not}, nil
	case *expr.IsNull:
		xx, err := rewriteAgg(x.X, groupBy, aggs)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{X: xx, Not: x.Not}, nil
	case *expr.Call:
		args := make([]expr.Expr, len(x.Args))
		var err error
		for i, a := range x.Args {
			if args[i], err = rewriteAgg(a, groupBy, aggs); err != nil {
				return nil, err
			}
		}
		return &expr.Call{Name: x.Name, Args: args}, nil
	default:
		return nil, fmt.Errorf("cannot rewrite %T over aggregate output", e)
	}
}

// orderKeyExpr maps one ORDER BY expression to the projection context: a
// bare identifier naming a SELECT alias refers to that item; otherwise the
// expression is resolved against the input schema and, for aggregate
// queries, rewritten onto the aggregate output layout.
func orderKeyExpr(e expr.Expr, names []string, visibleExprs []expr.Expr,
	inputSchema expr.Schema, agg *aggregateInfo) (expr.Expr, error) {

	if c, ok := e.(*expr.ColRef); ok && c.Table == "" {
		for i, n := range names {
			if strings.EqualFold(n, c.Column) {
				return visibleExprs[i], nil
			}
		}
	}
	clone := expr.Clone(e)
	if err := expr.Resolve(clone, inputSchema); err != nil {
		return nil, err
	}
	if agg != nil {
		rewritten, err := rewriteAgg(clone, agg.groupBy, agg.aggs)
		if err != nil {
			return nil, fmt.Errorf("ORDER BY %s: %w", e, err)
		}
		return rewritten, nil
	}
	return clone, nil
}
