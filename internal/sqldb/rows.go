package sqldb

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ordxml/internal/govern"
	"ordxml/internal/obs"
	"ordxml/internal/sqldb/catalog"
	"ordxml/internal/sqldb/exec"
	"ordxml/internal/sqldb/plan"
	"ordxml/internal/sqldb/sqltypes"
)

// Rows is a query cursor, and the only way the engine runs a SELECT: the
// operator tree stays open between Next calls, so a caller can consume a
// large result incrementally (or stop early) without materializing it. The
// operator tree runs on the goroutine that calls Next; the cursor pins the
// catalog snapshot it reads for its whole lifetime, so Close is not
// optional.
//
// Closing a partially-consumed cursor ends the statement's operator spans and
// drops the pinned view so the snapshot can be reclaimed; it is idempotent
// and safe after Next has returned false. The sqldb.cursors.open gauge counts
// live cursors, so a leak shows up in metrics before it shows up as memory.
//
// A cursor is one statement to the metrics and the tracer: Close (or a failed
// open) counts it in sqldb.queries, observes its open-to-close time in
// sqldb.query.latency and ends its span.
type Rows struct {
	db   *DB
	op   exec.Operator
	cols []string
	v    *catalog.View // pins the snapshot while the cursor is open

	// ctx is polled and mem charged once per row the cursor hands out, on top
	// of what the operators inside the tree poll and charge.
	ctx context.Context
	mem *govern.Accountant

	sql   string
	start time.Time
	sp    *obs.ActiveSpan // sql.query / sql.analyze, when the statement is traced
	n     int             // rows returned

	cur    sqltypes.Row
	err    error
	done   bool
	closed bool
}

// Result is a fully materialized query result: a cursor drained by
// materialize.
type Result struct {
	Columns []string
	Rows    []sqltypes.Row
}

// door is what distinguishes the entry points that share open.
type door uint8

const (
	joinTrace   door = iota // a span only under the one ctx carries
	rootTrace               // else a new trace root: the Ctx doors that have always rooted
	analyzeDoor             // rootTrace, run as EXPLAIN ANALYZE whatever the text says, under sql.analyze
)

// open is the one path every SELECT — and EXPLAIN [ANALYZE] — takes, whatever
// door it came through: it starts the statement's span, resolves the plan
// under a "plan" child span (cache lookup, else parse and plan), opens the
// operator tree over view v under the statement's context and memory
// accountant, and returns the cursor whose Close records the statement in
// sqldb.queries and sqldb.query.latency. A panic anywhere in between fails
// the statement with govern.ErrInternal, not the process: a query reads an
// immutable snapshot and can corrupt nothing.
func (db *DB) open(ctx context.Context, v *catalog.View, sql string, params []sqltypes.Value, d door) (_ *Rows, err error) {
	name, analyze := "sql.query", d == analyzeDoor
	if analyze {
		name = "sql.analyze"
	}
	r := &Rows{db: db, v: v, sql: sql, start: time.Now()}
	r.ctx, r.sp = db.startSpan(ctx, name, d)
	r.sp.ArgStr("sql", truncForTrace(sql))
	db.openCursors.Add(1)
	defer func() {
		if p := recover(); p != nil {
			err = govern.Recovered(p)
		}
		if err != nil {
			r.err = err
			r.Close()
		}
	}()

	psp := r.sp.StartChild("plan")
	var text string
	node, ex, err := db.selectPlan(v, sql)
	if ex != nil {
		if analyze = analyze || ex.Analyze; analyze {
			node, err = db.analyzedPlan(v, ex)
		} else {
			text, err = db.explainText(v, ex.Stmt)
		}
	}
	psp.End()
	if err != nil {
		return nil, err
	}
	if node == nil {
		r.showPlan(text)
		return r, nil
	}

	r.mem = db.accountant(r.ctx)
	env := exec.Env{View: v, Span: r.sp, Ctx: r.ctx, Mem: r.mem}
	var execStart time.Time
	if analyze {
		env.Stats, execStart = map[plan.Node]*exec.OpStats{}, time.Now()
	}
	if r.op, err = exec.Open(node, params, env); err != nil {
		return nil, err
	}
	schema := node.Schema()
	r.cols = make([]string, len(schema))
	for i, c := range schema {
		r.cols[i] = c.Column
	}
	if analyze {
		// EXPLAIN ANALYZE: run the statement to its end here, through the same
		// governed cursor, and answer with what each operator actually did.
		for r.Next() {
		}
		if r.err != nil {
			return nil, r.err
		}
		r.op.Close()
		r.showPlan(exec.FormatAnalyze(node, env.Stats) + fmt.Sprintf("Total: rows=%d time=%s\n",
			r.n, time.Since(execStart).Round(time.Microsecond)))
	}
	return r, nil
}

// showPlan points the cursor at multi-line plan text: one "plan" column, one
// row per line.
func (r *Rows) showPlan(text string) {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	r.op, r.cols, r.n, r.done = &planLines{lines: lines}, []string{"plan"}, 0, false
}

// planLines is the operator under an EXPLAIN cursor.
type planLines struct {
	lines []string
}

func (p *planLines) Open() error { return nil }
func (p *planLines) Close()      {}
func (p *planLines) Next() (sqltypes.Row, bool, error) {
	if len(p.lines) == 0 {
		return nil, false, nil
	}
	row := sqltypes.Row{sqltypes.NewText(p.lines[0])}
	p.lines = p.lines[1:]
	return row, true, nil
}

// QueryRows opens a streaming cursor over a SELECT against the latest
// published view. The caller must Close the returned Rows; see the type
// documentation. ctx governs the cursor's whole lifetime: cancellation is
// observed by the scans inside the operator tree and by the cursor's own
// Next loop.
func (db *DB) QueryRows(ctx context.Context, sql string, params ...sqltypes.Value) (*Rows, error) {
	return db.open(ctx, db.view.Load(), sql, params, joinTrace)
}

// QueryRows opens a streaming cursor against the pinned snapshot.
func (s *Snap) QueryRows(ctx context.Context, sql string, params ...sqltypes.Value) (*Rows, error) {
	return s.db.open(ctx, s.v, sql, params, joinTrace)
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.cols }

// Next advances the cursor. It returns false at the end of the result set or
// on error; check Err after the loop. Panics inside the operator tree are
// contained and surfaced through Err as govern.ErrInternal.
func (r *Rows) Next() bool {
	if r.closed || r.done {
		return false
	}
	defer r.contain()
	var ok bool
	r.cur, ok = r.step()
	return ok
}

// step pulls one row through the cursor's governance tick: the row is charged
// to the memory budget and the context polled every govern.PollInterval rows.
// ok is false, with done set, at the end of the stream or on error.
func (r *Rows) step() (row sqltypes.Row, ok bool) {
	row, ok, err := r.op.Next()
	if err == nil && ok {
		if r.mem != nil {
			err = r.mem.Charge(row.Memory())
		}
		if r.n++; err == nil && r.n%govern.PollInterval == 0 {
			err = govern.CtxErr(r.ctx)
		}
	}
	if err != nil || !ok {
		r.err, r.done = err, true
		return nil, false
	}
	return row, true
}

// contain, deferred around pulls from the operator tree, turns a panic into
// the cursor's terminal error.
func (r *Rows) contain() {
	if p := recover(); p != nil {
		r.cur, r.err, r.done = nil, govern.Recovered(p), true
	}
}

// materialize drains the cursor into a Result and closes it — the one loop
// behind every materializing entry point, under one panic containment for the
// whole statement. It takes open's results so a door is one expression.
func materialize(r *Rows, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: r.cols}
	func() {
		defer r.contain()
		for row, ok := r.step(); ok; row, ok = r.step() {
			res.Rows = append(res.Rows, row.Clone())
		}
	}()
	if err := r.Close(); err != nil {
		return nil, err
	}
	return res, nil
}

// Row returns the current row. It is valid only until the next call to Next
// or Close; Clone it to retain it.
func (r *Rows) Row() sqltypes.Row { return r.cur }

// Err returns the error that terminated iteration, if any.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor: it closes the operator tree (even on a
// partially-consumed query) and unpins the snapshot view. Idempotent; returns
// the iteration error, if any, so `defer rows.Close()` callers who check Err
// lose nothing.
func (r *Rows) Close() error {
	if r.closed {
		return r.err
	}
	r.closed = true
	if r.op != nil {
		r.op.Close()
	}
	r.db.openCursors.Add(-1)
	r.db.metrics.recordQuery(r.sql, time.Since(r.start), r.n, r.err)
	r.sp.Arg("rows", int64(r.n)).End()
	r.cur, r.v = nil, nil
	return r.err
}
