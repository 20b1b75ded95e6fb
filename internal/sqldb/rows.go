package sqldb

import (
	"context"
	"fmt"
	"time"

	"ordxml/internal/govern"
	"ordxml/internal/obs"
	"ordxml/internal/sqldb/catalog"
	"ordxml/internal/sqldb/exec"
	"ordxml/internal/sqldb/sqltypes"
)

// Rows is a streaming query cursor: the operator tree stays open between
// Next calls, so a caller can consume a large result incrementally (or stop
// early) without materializing it. The cursor pins the catalog snapshot it
// reads for its whole lifetime and — unlike the materializing Query path —
// may hold live resources under it: buffer-pool pins in the scans and, for a
// parallel plan, running Gather worker goroutines.
//
// Close is therefore not optional. Closing a partially-consumed cursor stops
// and reaps any Gather workers, releases operator buffers, and drops the
// pinned view so the snapshot can be reclaimed; it is idempotent and safe
// after Next has returned false. The sqldb.cursors.open gauge counts live
// cursors, so a leak shows up in metrics before it shows up as memory.
//
// A cursor is one SELECT statement to the metrics and the tracer, like Query:
// Close (or a failed open) counts it in sqldb.queries, observes its
// open-to-close time in sqldb.query.latency and ends its sql.query span.
type Rows struct {
	db   *DB
	op   exec.Operator
	cols []string
	v    *catalog.View // pins the snapshot while the cursor is open
	gov  *govTickProxy

	sql   string
	start time.Time
	sp    *obs.ActiveSpan // sql.query, when the context carried a span
	n     int             // rows returned

	cur    sqltypes.Row
	err    error
	done   bool
	closed bool
}

// govTickProxy carries the cursor's result-loop governance (context polling
// and per-row memory charges) without re-exporting exec internals.
type govTickProxy struct {
	ctx  context.Context
	mem  *govern.Accountant
	rows int
}

func (g *govTickProxy) step(r sqltypes.Row) error {
	if g == nil {
		return nil
	}
	if err := g.mem.Charge(r.Memory()); err != nil {
		return err
	}
	g.rows++
	if g.ctx != nil && g.rows%govern.PollInterval == 0 {
		return govern.CtxErr(g.ctx)
	}
	return nil
}

// QueryRows opens a streaming cursor over a SELECT against the latest
// published view. The caller must Close the returned Rows; see the type
// documentation. ctx governs the cursor's whole lifetime: cancellation is
// observed by the scans inside the operator tree and by the cursor's own
// Next loop.
func (db *DB) QueryRows(ctx context.Context, sql string, params ...sqltypes.Value) (*Rows, error) {
	return db.queryRowsAt(ctx, db.view.Load(), sql, params)
}

// QueryRows opens a streaming cursor against the pinned snapshot.
func (s *Snap) QueryRows(ctx context.Context, sql string, params ...sqltypes.Value) (*Rows, error) {
	return s.db.queryRowsAt(ctx, s.v, sql, params)
}

func (db *DB) queryRowsAt(ctx context.Context, v *catalog.View, sql string, params []sqltypes.Value) (rows *Rows, err error) {
	start := time.Now()
	ctx, sp := obs.StartSpan(ctx, "sql.query")
	// Same statement-boundary containment as queryAt: a panic while planning
	// or opening the tree fails the statement, not the process.
	defer func() {
		if p := recover(); p != nil {
			rows, err = nil, govern.Recovered(p)
		}
		if err != nil {
			db.metrics.recordQuery(sql, time.Since(start), 0, err)
			sp.End()
		}
	}()
	psp := sp.StartChild("plan")
	node, ex, err := db.selectPlan(v, sql, nil)
	psp.End()
	if err != nil {
		return nil, err
	}
	if ex != nil {
		return nil, fmt.Errorf("QueryRows does not support EXPLAIN; use Query")
	}
	if planParallelism(node) > 0 {
		db.metrics.parallelQ.Inc()
	}
	mem := db.accountant(ctx)
	op, err := exec.OpenGoverned(ctx, node, params, v, sp, mem)
	if err != nil {
		return nil, err
	}
	schema := node.Schema()
	cols := make([]string, len(schema))
	for i, c := range schema {
		cols[i] = c.Column
	}
	var gov *govTickProxy
	if ctx != nil || mem != nil {
		gov = &govTickProxy{ctx: ctx, mem: mem}
	}
	db.openCursors.Add(1)
	return &Rows{db: db, op: op, cols: cols, v: v, gov: gov, sql: sql, start: start, sp: sp}, nil
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.cols }

// Next advances the cursor. It returns false at the end of the result set or
// on error; check Err after the loop. Panics inside the operator tree are
// contained and surfaced through Err as govern.ErrInternal.
func (r *Rows) Next() bool {
	if r.closed || r.done || r.err != nil {
		return false
	}
	row, ok, err := r.nextRow()
	if err != nil {
		r.err = err
		r.done = true
		return false
	}
	if !ok {
		r.done = true
		return false
	}
	if err := r.gov.step(row); err != nil {
		r.err = err
		r.done = true
		return false
	}
	r.cur = row
	r.n++
	return true
}

// nextRow pulls one row with panic containment around the operator call.
func (r *Rows) nextRow() (row sqltypes.Row, ok bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			row, ok, err = nil, false, govern.Recovered(p)
		}
	}()
	return r.op.Next()
}

// Row returns the current row. It is valid only until the next call to Next
// or Close; Clone it to retain it.
func (r *Rows) Row() sqltypes.Row { return r.cur }

// Err returns the error that terminated iteration, if any.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor: it stops and reaps Gather workers (even on a
// partially-consumed parallel query), releases operator buffers, and unpins
// the snapshot view. Idempotent; returns the iteration error, if any, so
// `defer rows.Close()` callers who check Err lose nothing.
func (r *Rows) Close() error {
	if r.closed {
		return r.err
	}
	r.closed = true
	r.op.Close()
	r.db.openCursors.Add(-1)
	r.db.metrics.recordQuery(r.sql, time.Since(r.start), r.n, r.err)
	r.sp.Arg("rows", int64(r.n)).End()
	r.cur, r.v = nil, nil
	return r.err
}
