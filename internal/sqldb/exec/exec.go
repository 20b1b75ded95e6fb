// Package exec interprets physical plans with Volcano-style iterators and
// runs DML statements. It is deliberately simple: every operator implements
// Open/Next/Close over sqltypes.Row values, a SELECT tree starts in exactly
// one place (Open), and what is done with its rows — stream, materialize,
// analyze — is the engine's business (sqldb.Rows), not this package's.
package exec

import (
	"context"
	"fmt"
	"slices"
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

// EncodeRIDInt packs a heap RID into an int64 for the hidden _rid column.
func EncodeRIDInt(rid heap.RID) int64 {
	return int64(rid.Page)<<16 | int64(rid.Slot)
}

// DecodeRIDInt unpacks a hidden _rid value.
func DecodeRIDInt(v int64) heap.RID {
	return heap.RID{Page: uint32(v >> 16), Slot: uint16(v & 0xFFFF)}
}

// Env is what a SELECT tree is built and opened under. The zero value reads
// live storage ungoverned and uninstrumented — the writer side, where the
// engine's write lock already serialises the statement.
type Env struct {
	// View is the catalog snapshot the query reads (nil means live storage).
	View *catalog.View
	// Span, when non-nil, is the request span the operator tree hangs off:
	// every operator gets a child span (Open→Close wall interval, row count
	// arg).
	Span *obs.ActiveSpan
	// Ctx, when non-nil, is the statement context scans poll for
	// cancellation; Mem, when non-nil, is the query's shared memory
	// accountant charged by pipeline-breaking operators.
	Ctx context.Context
	Mem *govern.Accountant
	// Stats, when non-nil, switches on EXPLAIN ANALYZE instrumentation: every
	// operator is wrapped with a stats decorator registered under its plan
	// node, and the map fills in as the query executes (see FormatAnalyze).
	Stats map[plan.Node]*OpStats
}

// data resolves the table's readable storage for this query.
func (e Env) data(t *catalog.Table) *catalog.TableData { return e.View.Data(t) }

// Open compiles a SELECT plan into an operator tree under env and opens it —
// the one way a tree starts, whether the caller streams it, drains it or
// analyzes it. The tree runs on the calling goroutine. On success the caller
// owns the operator and must Close it exactly once: Close ends the operator
// spans even when the stream is only partially consumed. On error nothing is
// retained.
func Open(n plan.Node, params []sqltypes.Value, env Env) (Operator, error) {
	op, err := build(n, params, env)
	if err != nil {
		return nil, err
	}
	if err := op.Open(); err != nil {
		op.Close()
		return nil, err
	}
	return op, nil
}

// build compiles one node (recursively), wrapping it with a stats decorator
// under env.Stats and with a trace decorator, one span per operator in the
// request's trace tree, under env.Span.
func build(n plan.Node, params []sqltypes.Value, env Env) (Operator, error) {
	var tsp *obs.ActiveSpan
	if env.Span != nil { // untraced, do not even format the name
		tsp = env.Span.StartChild("op." + opName(n))
	}
	env.Span = tsp
	op, err := buildOp(n, params, env)
	if err != nil {
		tsp.End()
		return op, err
	}
	if env.Stats != nil {
		st := &OpStats{}
		env.Stats[n] = st
		op = &statsOp{op: op, st: st}
	}
	if tsp != nil {
		op = &traceOp{op: op, sp: tsp}
	}
	return op, nil
}

// opName renders a plan node's operator name ("SeqScan", "HashJoin", ...).
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

func buildOp(n plan.Node, params []sqltypes.Value, env Env) (Operator, error) {
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
		return &sortOp{input: in, keys: x.Keys, gov: env.newTick()}, nil
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

// runRows is the one way a DML statement writes: apply(i) runs for rows
// 0..n-1 against one catalog.Write, and the statement keeps every row or, on
// any error — a constraint, an expression, storage — none, reporting 0 rows
// with the error.
func runRows(t *catalog.Table, n int, apply func(w *catalog.Write, i int) error) (int, error) {
	w := t.BeginWrite()
	w.Reserve(n)
	var err error
	for i := 0; i < n && err == nil; i++ {
		err = apply(w, i)
	}
	if err := w.Finish(err); err != nil {
		return 0, err
	}
	return n, nil
}

// RunInsert executes an insert plan, returning the number of rows inserted.
func RunInsert(p *plan.InsertPlan, params []sqltypes.Value) (int, error) {
	env := &expr.Env{Params: params}
	return runRows(p.Table, len(p.Rows), func(w *catalog.Write, i int) error {
		row := make(sqltypes.Row, len(p.Table.Columns))
		for c := range row {
			row[c] = sqltypes.NullValue()
		}
		for vi, e := range p.Rows[i] {
			v, err := expr.Eval(e, env)
			if err != nil {
				return err
			}
			row[p.Columns[vi]] = v
		}
		return w.Insert(row)
	})
}

// RunUpdate executes an update plan, returning the number of rows updated.
// Matching rows are materialized before any mutation so the scan never
// observes its own writes. They are applied in reverse scan order: a shift
// such as `SET k = k + d WHERE k >= x` over an ascending index scan then
// moves each row into a key its successor already vacated, so no unique key
// is parked and the trees change from the high end down. Any order is
// correct; uniqueness holds per statement.
//
// An UPDATE the planner marked as a shift (plan.UpdatePlan.ShiftDelta) whose
// delta is positive first tries runShift, which rewrites index runs in
// place; it falls back to this row-by-row path when the statement's keys
// would not keep their order.
func RunUpdate(p *plan.UpdatePlan, params []sqltypes.Value) (int, error) {
	matches, err := collectDML(p.Scan, params, true)
	if err != nil {
		return 0, err
	}
	env := &expr.Env{Params: params}
	if p.ShiftDelta != nil && positive(p.ShiftDelta, env) {
		if n, ok, err := runShift(p, env, matches); ok {
			return n, err
		}
	}
	vals := make([]sqltypes.Value, len(p.SetExprs))
	var row sqltypes.Row
	newRow := make(sqltypes.Row, len(p.Table.Columns))
	n := len(matches.rids)
	return runRows(p.Table, n, func(w *catalog.Write, i int) error {
		i = n - 1 - i
		rid, old := matches.rids[i], matches.row(i)
		var err error
		if row, _, err = sqltypes.DecodeRowInto(row[:0], old); err != nil {
			return err
		}
		// SET expressions resolve against the scan's row, which ends in _rid.
		row = append(row, sqltypes.NewInt(EncodeRIDInt(rid)))
		env.Row = row
		for si, e := range p.SetExprs {
			v, err := expr.Eval(e, env)
			if err != nil {
				return err
			}
			vals[si] = v
		}
		// The matched row stays as the scan read it: the Write takes the old
		// index keys from it and keeps its encoding for undo. The new row is
		// built in a second scratch row.
		oldRow := row[:len(newRow)]
		copy(newRow, oldRow)
		for si, col := range p.SetCols {
			newRow[col] = vals[si]
		}
		_, err = w.UpdateFrom(rid, old, oldRow, newRow)
		return err
	})
}

// positive reports whether the constant e evaluates to a number above zero.
func positive(e expr.Expr, env *expr.Env) bool {
	v, err := expr.Eval(e, env)
	if err != nil {
		return false
	}
	switch v.Type() {
	case sqltypes.Int:
		return v.Int() > 0
	case sqltypes.Real:
		return v.Real() > 0
	}
	return false
}

// runShift applies an UPDATE of one column whose new values keep the order
// of every index holding it (catalog.Shift): each row's value is rewritten
// in the heap and each index's runs of entries in place. Rows are evaluated
// in RunUpdate's order, so a failing row reports the error the row-by-row
// path would. ok is false, with nothing written, when the new keys would
// not keep their order; the caller then runs the row-by-row path.
func runShift(p *plan.UpdatePlan, env *expr.Env, matches dmlMatches) (n int, ok bool, err error) {
	n = len(matches.rids)
	col := p.SetCols[0]
	w := p.Table.BeginWrite()
	shift := w.Shift(col, matches.rids, matches.row)
	// Only the columns of the assignment and of the keys the shift rewrites
	// are read: the rest of each row is moved as bytes.
	want := shift.Reads()
	expr.Walk(p.SetExprs[0], func(e expr.Expr) bool {
		if c, ok := e.(*expr.ColRef); ok && c.Idx < len(want) {
			want[c.Idx] = true
		}
		return true
	})
	var row sqltypes.Row
	for i := n - 1; i >= 0; i-- {
		rid, old := matches.rids[i], matches.row(i)
		if row, err = sqltypes.DecodeColumnsInto(row[:0], old, want); err != nil {
			return 0, true, w.Finish(err)
		}
		row = append(row, sqltypes.NewInt(EncodeRIDInt(rid)))
		env.Row = row
		v, err := expr.Eval(p.SetExprs[0], env)
		if err == nil {
			err = shift.Set(i, row[:len(row)-1], v)
		}
		if err != nil {
			return 0, true, w.Finish(err)
		}
	}
	if ok, err = shift.Apply(); !ok && err == nil {
		return 0, false, nil
	}
	if err := w.Finish(err); err != nil {
		return 0, true, err
	}
	return n, true, nil
}

// RunDelete executes a delete plan, returning the number of rows deleted.
func RunDelete(p *plan.DeletePlan, params []sqltypes.Value) (int, error) {
	matches, err := collectDML(p.Scan, params, false)
	if err != nil {
		return 0, err
	}
	return runRows(p.Table, len(matches.rids), func(w *catalog.Write, i int) error {
		return w.Delete(matches.rids[i])
	})
}

// dmlMatches is what a DML statement's scan matched, read in full before the
// statement changes anything: each row's RID and, when kept, its table
// columns row-encoded back to back, as the heap stores them. Decoded, a row
// would take a 32-byte Value per column, about four times its encoding.
type dmlMatches struct {
	rids []heap.RID
	rows catalog.ByteStore
	ends []int // row i ends at offset ends[i] of rows
}

// add keeps one more row's encoding.
func (m *dmlMatches) add(row []byte) {
	m.ends = append(reserve(m.ends, 1), m.rows.Append(row))
}

// row returns match i's encoded row.
func (m *dmlMatches) row(i int) []byte {
	prev := 0
	if i > 0 {
		prev = m.ends[i-1]
	}
	return m.rows.Slice(prev, m.ends[i])
}

// An index scan with no residual filter hands collectDML each row as the
// heap stores it, which is what a kept row is: no decode and re-encode.
func collectDML(scan plan.Node, params []sqltypes.Value, keepRows bool) (dmlMatches, error) {
	var m dmlMatches
	op, err := Open(scan, params, Env{})
	if err != nil {
		return m, err
	}
	defer op.Close()
	is, _ := op.(*indexScanOp)
	raw := keepRows && is != nil && len(is.node.Filters) == 0
	if raw {
		is.raw = true
	}
	var enc []byte
	for {
		row, ok, err := op.Next()
		if err != nil {
			return m, err
		}
		if !ok {
			return m, nil
		}
		last := len(row) - 1
		m.rids = append(reserve(m.rids, 1), DecodeRIDInt(row[last].Int()))
		switch {
		case raw:
			m.add(is.rawRow)
		case keepRows:
			enc = sqltypes.EncodeRow(enc[:0], row[:last])
			m.add(enc)
		}
	}
}

// reserve returns s with room for n more elements, doubling its capacity when
// it must grow. append alone grows a large slice by a quarter at a time, so
// a slice built up row by row allocates about five times its final size.
func reserve[S ~[]E, E any](s S, n int) S {
	if cap(s)-len(s) < n {
		s = slices.Grow(s, max(n, cap(s)))
	}
	return s
}
