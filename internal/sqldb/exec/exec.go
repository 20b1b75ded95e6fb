// Package exec interprets physical plans with Volcano-style iterators and
// runs DML statements. It is deliberately simple: every operator implements
// Open/Next/Close over sqltypes.Row values.
package exec

import (
	"context"
	"fmt"
	"strings"

	"ordxml/internal/govern"
	"ordxml/internal/obs"
	"ordxml/internal/sqldb/catalog"
	"ordxml/internal/sqldb/expr"
	"ordxml/internal/sqldb/heap"
	"ordxml/internal/sqldb/plan"
	"ordxml/internal/sqldb/sqltypes"
)

// Operator is one executable plan node.
type Operator interface {
	Open() error
	// Next returns the next row; ok=false signals the end of the stream.
	// The returned row must not be retained across calls unless cloned.
	Next() (row sqltypes.Row, ok bool, err error)
	Close()
}

// Result is a fully materialized query result.
type Result struct {
	Columns []string
	Rows    []sqltypes.Row
}

// EncodeRIDInt packs a heap RID into an int64 for the hidden _rid column.
func EncodeRIDInt(rid heap.RID) int64 {
	return int64(rid.Page)<<16 | int64(rid.Slot)
}

// DecodeRIDInt unpacks a hidden _rid value.
func DecodeRIDInt(v int64) heap.RID {
	return heap.RID{Page: uint32(v >> 16), Slot: uint16(v & 0xFFFF)}
}

// buildEnv carries the per-query execution context through operator
// construction: the catalog view the query reads (nil means live storage,
// the writer side), the optional instrumentation map, and — inside a Gather
// worker subtree — the shared partition state and the worker's ordinal.
type buildEnv struct {
	view   *catalog.View
	stats  map[plan.Node]*OpStats
	shared *gatherShared
	worker int
	// span, when non-nil, is the request span the operator tree hangs off:
	// every operator gets a child span (Open→Close wall interval, row count
	// arg), and Gather workers open their own lanes under it.
	span *obs.ActiveSpan
	// ctx, when non-nil, is the statement context scans poll for
	// cancellation; mem, when non-nil, is the query's shared memory
	// accountant charged by pipeline-breaking operators.
	ctx context.Context
	mem *govern.Accountant
}

// data resolves the table's readable storage for this query.
func (e buildEnv) data(t *catalog.Table) *catalog.TableData { return e.view.Data(t) }

// Build compiles a plan node into an operator tree reading from view (nil
// for live storage under the engine's write lock).
func Build(n plan.Node, params []sqltypes.Value, view *catalog.View) (Operator, error) {
	return build(n, params, buildEnv{view: view})
}

// build compiles one node (recursively). When env.stats is non-nil every
// operator is wrapped with a stats decorator registered in the map under its
// plan node (Gather workers carry their own maps, merged when the gather
// drains). When env.span is non-nil every operator is additionally wrapped
// with a trace decorator emitting one span per operator into the request's
// trace tree.
func build(n plan.Node, params []sqltypes.Value, env buildEnv) (Operator, error) {
	tsp := env.span.StartChild("op." + opName(n))
	env.span = tsp
	op, err := buildOp(n, params, env)
	if err != nil {
		tsp.End()
		return op, err
	}
	if env.stats != nil {
		st := &OpStats{}
		env.stats[n] = st
		op = &statsOp{op: op, st: st}
	}
	if tsp != nil {
		op = &traceOp{op: op, sp: tsp}
	}
	return op, nil
}

// opName renders a plan node's operator name ("SeqScan", "Gather", ...).
func opName(n plan.Node) string {
	s := fmt.Sprintf("%T", n)
	if i := strings.LastIndexByte(s, '.'); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// traceOp decorates an operator with one request-trace span covering its
// Open→Close interval, annotated with the produced row count. Allocated only
// when the request is traced.
type traceOp struct {
	op     Operator
	sp     *obs.ActiveSpan
	rows   int64
	closed bool
}

func (t *traceOp) Open() error {
	t.sp.MarkStart()
	return t.op.Open()
}

func (t *traceOp) Next() (sqltypes.Row, bool, error) {
	row, ok, err := t.op.Next()
	if ok {
		t.rows++
	}
	return row, ok, err
}

func (t *traceOp) Close() {
	t.op.Close()
	if !t.closed {
		t.closed = true
		t.sp.Arg("rows", t.rows).End()
	}
}

func buildOp(n plan.Node, params []sqltypes.Value, env buildEnv) (Operator, error) {
	switch x := n.(type) {
	case *plan.SeqScan:
		return newSeqScan(x, params, env), nil
	case *plan.IndexScan:
		return newIndexScan(x, params, env), nil
	case *plan.ParamScan:
		return &paramScanOp{node: x, params: params, gov: env.newTick()}, nil
	case *plan.Filter:
		in, err := build(x.Input, params, env)
		if err != nil {
			return nil, err
		}
		return &filterOp{input: in, pred: x.Pred, env: &expr.Env{Params: params}}, nil
	case *plan.Project:
		in, err := build(x.Input, params, env)
		if err != nil {
			return nil, err
		}
		return &projectOp{input: in, exprs: x.Exprs, env: &expr.Env{Params: params}}, nil
	case *plan.Trim:
		in, err := build(x.Input, params, env)
		if err != nil {
			return nil, err
		}
		return &trimOp{input: in, keep: x.Keep}, nil
	case *plan.Sort:
		in, err := build(x.Input, params, env)
		if err != nil {
			return nil, err
		}
		return &sortOp{input: in, keys: x.Keys, env: &expr.Env{Params: params}, gov: env.newTick()}, nil
	case *plan.Limit:
		in, err := build(x.Input, params, env)
		if err != nil {
			return nil, err
		}
		return &limitOp{input: in, node: x, env: &expr.Env{Params: params}}, nil
	case *plan.Distinct:
		in, err := build(x.Input, params, env)
		if err != nil {
			return nil, err
		}
		return &distinctOp{input: in, gov: env.newTick()}, nil
	case *plan.HashJoin:
		l, err := build(x.Left, params, env)
		if err != nil {
			return nil, err
		}
		r, err := build(x.Right, params, env)
		if err != nil {
			return nil, err
		}
		return &hashJoinOp{node: x, left: l, right: r, env: &expr.Env{Params: params},
			gov: env.newTick(), rightWidth: len(x.Right.Schema())}, nil
	case *plan.PartitionedHashJoin:
		l, err := build(x.Left, params, env)
		if err != nil {
			return nil, err
		}
		r, err := build(x.Right, params, env)
		if err != nil {
			return nil, err
		}
		return &partHashJoinOp{node: x, left: l, right: r, params: params, env: env,
			rightWidth: len(x.Right.Schema())}, nil
	case *plan.Gather:
		return &gatherOp{node: x, params: params, env: env}, nil
	case *plan.IndexNLJoin:
		l, err := build(x.Left, params, env)
		if err != nil {
			return nil, err
		}
		return newIndexNLJoin(x, l, params, env), nil
	case *plan.NLJoin:
		l, err := build(x.Left, params, env)
		if err != nil {
			return nil, err
		}
		r, err := build(x.Right, params, env)
		if err != nil {
			return nil, err
		}
		return &nlJoinOp{node: x, left: l, right: r, env: &expr.Env{Params: params},
			gov: env.newTick(), rightWidth: len(x.Right.Schema())}, nil
	case *plan.HashAggregate:
		in, err := build(x.Input, params, env)
		if err != nil {
			return nil, err
		}
		return &hashAggOp{node: x, input: in, env: &expr.Env{Params: params}, gov: env.newTick()}, nil
	default:
		return nil, fmt.Errorf("exec: no operator for %T", n)
	}
}

// Run executes a SELECT plan to completion against the given view (nil for
// live storage).
func Run(n plan.Node, params []sqltypes.Value, view *catalog.View) (*Result, error) {
	return RunSpan(n, params, view, nil)
}

// RunSpan executes a SELECT plan like Run, hanging one trace span per
// operator off sp when sp is non-nil.
func RunSpan(n plan.Node, params []sqltypes.Value, view *catalog.View, sp *obs.ActiveSpan) (*Result, error) {
	return RunGoverned(nil, n, params, view, sp, nil)
}

// RunGoverned executes a SELECT plan under query governance: scans poll ctx
// every govern.PollInterval rows (aborting with the typed cancellation
// errors), and materializing operators plus the result buffer charge mem.
// Both may be nil for an ungoverned run.
func RunGoverned(ctx context.Context, n plan.Node, params []sqltypes.Value,
	view *catalog.View, sp *obs.ActiveSpan, mem *govern.Accountant) (*Result, error) {
	env := buildEnv{view: view, span: sp, ctx: ctx, mem: mem}
	op, err := build(n, params, env)
	if err != nil {
		return nil, err
	}
	if err := op.Open(); err != nil {
		op.Close()
		return nil, err
	}
	defer op.Close()
	schema := n.Schema()
	res := &Result{Columns: make([]string, len(schema))}
	for i, c := range schema {
		res.Columns[i] = c.Column
	}
	tick := env.newTick()
	for {
		row, ok, err := op.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return res, nil
		}
		if err := tick.step(); err != nil {
			return nil, err
		}
		if err := tick.chargeRow(row); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row.Clone())
	}
}

// OpenGoverned compiles and opens a governed operator tree without draining
// it, for streaming consumers (the engine's cursor API). On success the
// caller owns the operator and must Close it exactly once — Close releases
// buffer-pool pins and reaps Gather workers even when the stream is only
// partially consumed. On error nothing is retained.
func OpenGoverned(ctx context.Context, n plan.Node, params []sqltypes.Value,
	view *catalog.View, sp *obs.ActiveSpan, mem *govern.Accountant) (Operator, error) {
	op, err := build(n, params, buildEnv{view: view, span: sp, ctx: ctx, mem: mem})
	if err != nil {
		return nil, err
	}
	if err := op.Open(); err != nil {
		op.Close()
		return nil, err
	}
	return op, nil
}

// RunInsert executes an insert plan, returning the number of rows inserted.
func RunInsert(p *plan.InsertPlan, params []sqltypes.Value) (int, error) {
	env := &expr.Env{Params: params}
	count := 0
	for _, exprRow := range p.Rows {
		row := make(sqltypes.Row, len(p.Table.Columns))
		for i := range row {
			row[i] = sqltypes.NullValue()
		}
		for vi, e := range exprRow {
			v, err := expr.Eval(e, env)
			if err != nil {
				return count, err
			}
			row[p.Columns[vi]] = v
		}
		if _, err := p.Table.Insert(row); err != nil {
			return count, err
		}
		count++
	}
	return count, nil
}

// RunUpdate executes an update plan, returning the number of rows updated.
// Matching rows are materialized before any mutation so the scan never
// observes its own writes.
func RunUpdate(p *plan.UpdatePlan, params []sqltypes.Value) (int, error) {
	matches, err := collectDML(p.Scan, params)
	if err != nil {
		return 0, err
	}
	env := &expr.Env{Params: params}
	count := 0
	for _, m := range matches {
		env.Row = m.row
		newRow := m.row[:len(p.Table.Columns)].Clone()
		for si, col := range p.SetCols {
			v, err := expr.Eval(p.SetExprs[si], env)
			if err != nil {
				return count, err
			}
			newRow[col] = v
		}
		if _, err := p.Table.Update(m.rid, newRow); err != nil {
			return count, err
		}
		count++
	}
	return count, nil
}

// RunDelete executes a delete plan, returning the number of rows deleted.
func RunDelete(p *plan.DeletePlan, params []sqltypes.Value) (int, error) {
	matches, err := collectDML(p.Scan, params)
	if err != nil {
		return 0, err
	}
	count := 0
	for _, m := range matches {
		if err := p.Table.Delete(m.rid); err != nil {
			return count, err
		}
		count++
	}
	return count, nil
}

type dmlMatch struct {
	rid heap.RID
	row sqltypes.Row
}

func collectDML(scan plan.Node, params []sqltypes.Value) ([]dmlMatch, error) {
	op, err := Build(scan, params, nil)
	if err != nil {
		return nil, err
	}
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []dmlMatch
	for {
		row, ok, err := op.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		ridVal := row[len(row)-1]
		out = append(out, dmlMatch{rid: DecodeRIDInt(ridVal.Int()), row: row.Clone()})
	}
}
