// Package plan defines the physical query plan nodes and the rule-based
// planner that compiles parsed statements into them. Plans are trees of Node
// values; the exec package interprets them with Volcano-style iterators.
//
// The planner implements the optimizations the paper's workload depends on:
// predicate pushdown into scans, index selection over an equality prefix plus
// one range (including LIKE-prefix rewriting, which is what makes Dewey
// descendant queries index range scans), hash joins for equi-predicates, and
// use of index order to satisfy ORDER BY without sorting.
package plan

import (
	"fmt"
	"strings"

	"ordxml/internal/sqldb/catalog"
	"ordxml/internal/sqldb/expr"
	"ordxml/internal/sqldb/sqltypes"
)

// Node is a physical plan operator.
type Node interface {
	// Schema describes the rows the node produces.
	Schema() expr.Schema
	// describe appends the node's own one-line description (no children, no
	// indent, no newline) to b.
	describe(b *strings.Builder)
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

// Explain renders the plan tree, one indented line per operator.
func Explain(n Node) string {
	var b strings.Builder
	explainInto(n, &b, 0, nil)
	return b.String()
}

// ExplainNode renders just one operator's description line.
func ExplainNode(n Node) string {
	var b strings.Builder
	n.describe(&b)
	return b.String()
}

// Annotator appends extra per-node text (e.g. runtime statistics) to a plan
// line; see ExplainAnnotated.
type Annotator func(n Node, b *strings.Builder)

// ExplainAnnotated renders the plan tree like Explain, calling annotate after
// each node's description — this is how EXPLAIN ANALYZE attaches actual row
// counts and timings to the same tree shape.
func ExplainAnnotated(n Node, annotate Annotator) string {
	var b strings.Builder
	explainInto(n, &b, 0, annotate)
	return b.String()
}

func explainInto(n Node, b *strings.Builder, depth int, annotate Annotator) {
	indent(b, depth)
	n.describe(b)
	if annotate != nil {
		annotate(n, b)
	}
	b.WriteByte('\n')
	for _, c := range Children(n) {
		explainInto(c, b, depth+1, annotate)
	}
}

// Children returns a node's input operators in display order.
func Children(n Node) []Node {
	switch x := n.(type) {
	case *SeqScan, *IndexScan, *ParamScan:
		return nil
	case *Filter:
		return []Node{x.Input}
	case *Project:
		return []Node{x.Input}
	case *Trim:
		return []Node{x.Input}
	case *Sort:
		return []Node{x.Input}
	case *Limit:
		return []Node{x.Input}
	case *Distinct:
		return []Node{x.Input}
	case *HashAggregate:
		return []Node{x.Input}
	case *HashJoin:
		return []Node{x.Left, x.Right}
	case *NLJoin:
		return []Node{x.Left, x.Right}
	case *IndexNLJoin:
		return []Node{x.Left}
	default:
		return nil
	}
}

// tableSchema builds the schema of a base-table access under an alias,
// optionally extended with the hidden _rid column used by UPDATE/DELETE.
func tableSchema(t *catalog.Table, alias string, emitRID bool) expr.Schema {
	s := make(expr.Schema, 0, len(t.Columns)+1)
	for _, c := range t.Columns {
		s = append(s, expr.SchemaColumn{Table: alias, Column: c.Name, Type: c.Type})
	}
	if emitRID {
		s = append(s, expr.SchemaColumn{Table: alias, Column: "_rid", Type: sqltypes.Int})
	}
	return s
}

// SeqScan reads every row of a table, applying residual filters.
type SeqScan struct {
	Table   *catalog.Table
	Alias   string
	Filters []expr.Expr // resolved against Schema()
	EmitRID bool        // append encoded RID as a hidden trailing column
}

// Schema implements Node.
func (s *SeqScan) Schema() expr.Schema { return tableSchema(s.Table, s.Alias, s.EmitRID) }

func (s *SeqScan) describe(b *strings.Builder) {
	fmt.Fprintf(b, "SeqScan %s", s.Table.Name)
	if s.Alias != s.Table.Name {
		fmt.Fprintf(b, " AS %s", s.Alias)
	}
	for _, f := range s.Filters {
		fmt.Fprintf(b, " filter=%s", f)
	}
}

// IndexScan reads rows via an index: an equality prefix over the first
// len(Eq) index columns, then an optional range on the next column. Eq, Low
// and High are row-independent expressions (literals, parameters, arithmetic
// over them) evaluated once at open time. Rows come in index key order, or
// in reverse key order when Desc is set.
type IndexScan struct {
	Table    *catalog.Table
	Alias    string
	Index    *catalog.Index
	Eq       []expr.Expr
	Low      expr.Expr // nil = unbounded
	High     expr.Expr // nil = unbounded
	LowExcl  bool
	HighExcl bool
	Filters  []expr.Expr
	EmitRID  bool
	Desc     bool
}

// Schema implements Node.
func (s *IndexScan) Schema() expr.Schema { return tableSchema(s.Table, s.Alias, s.EmitRID) }

func (s *IndexScan) describe(b *strings.Builder) {
	fmt.Fprintf(b, "IndexScan %s using %s", s.Table.Name, s.Index.Name)
	if s.Alias != s.Table.Name {
		fmt.Fprintf(b, " AS %s", s.Alias)
	}
	names := s.Index.ColumnNames()
	for i, e := range s.Eq {
		fmt.Fprintf(b, " %s=%s", names[i], e)
	}
	if s.Low != nil {
		op := ">="
		if s.LowExcl {
			op = ">"
		}
		fmt.Fprintf(b, " %s%s%s", names[len(s.Eq)], op, s.Low)
	}
	if s.High != nil {
		op := "<="
		if s.HighExcl {
			op = "<"
		}
		fmt.Fprintf(b, " %s%s%s", names[len(s.Eq)], op, s.High)
	}
	if s.Desc {
		b.WriteString(" desc")
	}
	for _, f := range s.Filters {
		fmt.Fprintf(b, " filter=%s", f)
	}
}

// ParamScan reads the rows the caller bound to a relation parameter
// (`FROM ? alias (col, ...)`): the leaf that feeds a caller-side node set
// into a join. The plan depends on the column names only, never on the rows.
type ParamScan struct {
	Param int // parameter index (0-based)
	Alias string
	Cols  []string
}

// Schema implements Node. Column types are whatever the bound rows hold.
func (s *ParamScan) Schema() expr.Schema {
	out := make(expr.Schema, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = expr.SchemaColumn{Table: s.Alias, Column: c}
	}
	return out
}

func (s *ParamScan) describe(b *strings.Builder) {
	fmt.Fprintf(b, "ParamScan ?%d AS %s (%s)", s.Param+1, s.Alias, strings.Join(s.Cols, ", "))
}

// Filter drops rows for which Pred is not TRUE.
type Filter struct {
	Input Node
	Pred  expr.Expr
}

// Schema implements Node.
func (f *Filter) Schema() expr.Schema { return f.Input.Schema() }

func (f *Filter) describe(b *strings.Builder) {
	fmt.Fprintf(b, "Filter %s", f.Pred)
}

// HashJoin joins on equality keys; Residual (optional) is evaluated on the
// combined row. Outer makes it a left outer join.
type HashJoin struct {
	Left, Right Node
	LeftKeys    []expr.Expr // resolved against Left schema
	RightKeys   []expr.Expr // resolved against Right schema
	Residual    expr.Expr   // resolved against combined schema; may be nil
	Outer       bool
}

// Schema implements Node.
func (j *HashJoin) Schema() expr.Schema {
	return append(append(expr.Schema{}, j.Left.Schema()...), j.Right.Schema()...)
}

func (j *HashJoin) describe(b *strings.Builder) {
	kind := "HashJoin"
	if j.Outer {
		kind = "HashLeftJoin"
	}
	b.WriteString(kind)
	for i := range j.LeftKeys {
		fmt.Fprintf(b, " %s=%s", j.LeftKeys[i], j.RightKeys[i])
	}
	if j.Residual != nil {
		fmt.Fprintf(b, " residual=%s", j.Residual)
	}
}

// NLJoin is a nested-loops join with an arbitrary ON predicate.
type NLJoin struct {
	Left, Right Node
	On          expr.Expr // resolved against combined schema; may be nil (cross)
	Outer       bool
}

// Schema implements Node.
func (j *NLJoin) Schema() expr.Schema {
	return append(append(expr.Schema{}, j.Left.Schema()...), j.Right.Schema()...)
}

func (j *NLJoin) describe(b *strings.Builder) {
	kind := "NestedLoopJoin"
	if j.Outer {
		kind = "NestedLoopLeftJoin"
	}
	b.WriteString(kind)
	if j.On != nil {
		fmt.Fprintf(b, " on=%s", j.On)
	}
}

// SortKey is one ORDER BY key: a column of the sorted rows. The projection
// below a Sort computes every key, appending hidden columns for keys the
// SELECT list lacks.
type SortKey struct {
	Col  int
	Desc bool
}

// Sort materializes and sorts its input.
type Sort struct {
	Input Node
	Keys  []SortKey
}

// Schema implements Node.
func (s *Sort) Schema() expr.Schema { return s.Input.Schema() }

func (s *Sort) describe(b *strings.Builder) {
	b.WriteString("Sort")
	for _, k := range s.Keys {
		dir := ""
		if k.Desc {
			dir = " DESC"
		}
		fmt.Fprintf(b, " $sort%d%s", k.Col, dir)
	}
}

// Project evaluates output expressions. The last Hidden expressions are
// auxiliary sort keys trimmed by a Trim node above the Sort.
type Project struct {
	Input  Node
	Exprs  []expr.Expr
	Names  []string
	Hidden int
}

// Schema implements Node.
func (p *Project) Schema() expr.Schema {
	s := make(expr.Schema, len(p.Exprs))
	for i := range p.Exprs {
		s[i] = expr.SchemaColumn{Column: p.Names[i], Type: exprType(p.Exprs[i])}
	}
	return s
}

// exprType does a best-effort static type inference used only for schema
// display; execution is dynamically typed.
func exprType(e expr.Expr) sqltypes.Type {
	switch x := e.(type) {
	case *expr.Literal:
		return x.Val.Type()
	default:
		return sqltypes.Null
	}
}

func (p *Project) describe(b *strings.Builder) {
	b.WriteString("Project")
	n := len(p.Exprs) - p.Hidden
	for i := 0; i < n; i++ {
		fmt.Fprintf(b, " %s", p.Exprs[i])
	}
	if p.Hidden > 0 {
		fmt.Fprintf(b, " (+%d sort keys)", p.Hidden)
	}
}

// Trim keeps the first Keep columns, dropping hidden sort keys.
type Trim struct {
	Input Node
	Keep  int
}

// Schema implements Node.
func (t *Trim) Schema() expr.Schema { return t.Input.Schema()[:t.Keep] }

func (t *Trim) describe(b *strings.Builder) {
	fmt.Fprintf(b, "Trim %d", t.Keep)
}

// HashAggregate groups rows by GroupBy values and computes Aggs per group.
// Output rows are the group-by values followed by aggregate results; Having
// (optional) is resolved against that output layout.
type HashAggregate struct {
	Input   Node
	GroupBy []expr.Expr
	Aggs    []*expr.Aggregate
	Having  expr.Expr
	// Global marks aggregation without GROUP BY: exactly one output row even
	// for empty input.
	Global bool
}

// Schema implements Node.
func (a *HashAggregate) Schema() expr.Schema {
	s := make(expr.Schema, 0, len(a.GroupBy)+len(a.Aggs))
	for _, g := range a.GroupBy {
		s = append(s, expr.SchemaColumn{Column: g.String()})
	}
	for _, ag := range a.Aggs {
		s = append(s, expr.SchemaColumn{Column: ag.String()})
	}
	return s
}

func (a *HashAggregate) describe(b *strings.Builder) {
	b.WriteString("HashAggregate")
	for _, g := range a.GroupBy {
		fmt.Fprintf(b, " by=%s", g)
	}
	for _, ag := range a.Aggs {
		fmt.Fprintf(b, " %s", ag)
	}
	if a.Having != nil {
		fmt.Fprintf(b, " having=%s", a.Having)
	}
}

// Distinct removes duplicate rows.
type Distinct struct {
	Input Node
}

// Schema implements Node.
func (d *Distinct) Schema() expr.Schema { return d.Input.Schema() }

func (d *Distinct) describe(b *strings.Builder) {
	b.WriteString("Distinct")
}

// Limit applies LIMIT/OFFSET; the bound expressions are row-independent.
type Limit struct {
	Input  Node
	Limit  expr.Expr // nil = unlimited
	Offset expr.Expr // nil = 0
}

// Schema implements Node.
func (l *Limit) Schema() expr.Schema { return l.Input.Schema() }

func (l *Limit) describe(b *strings.Builder) {
	b.WriteString("Limit")
	if l.Limit != nil {
		fmt.Fprintf(b, " limit=%s", l.Limit)
	}
	if l.Offset != nil {
		fmt.Fprintf(b, " offset=%s", l.Offset)
	}
}

// InsertPlan is a compiled INSERT.
type InsertPlan struct {
	Table *catalog.Table
	// Columns maps each value position to a table column index.
	Columns []int
	Rows    [][]expr.Expr
}

// UpdatePlan is a compiled UPDATE: Scan produces the table's rows plus the
// hidden _rid column; Sets assign new values per column index.
type UpdatePlan struct {
	Table *catalog.Table
	Scan  Node
	// SetCols are target column indexes, parallel to SetExprs.
	SetCols  []int
	SetExprs []expr.Expr // resolved against the table schema (with _rid)
	// ShiftDelta is set when the UPDATE may rewrite index runs in place:
	// its one assignment is `c + delta` or a function registered with
	// expr.RegisterIncreasing over c, so it keeps the order of every index
	// holding c when delta is positive, and every WHERE conjunct reads only
	// columns each such index holds. ShiftDelta is that delta, a constant
	// the executor evaluates per run; it takes the in-place path only when
	// the value is positive.
	ShiftDelta expr.Expr
}

// DeletePlan is a compiled DELETE.
type DeletePlan struct {
	Table *catalog.Table
	Scan  Node
}
