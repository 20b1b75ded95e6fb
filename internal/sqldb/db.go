// Package sqldb is the embedded relational engine's public face: a DB value
// that parses, plans and executes SQL statements over slotted-page storage
// with B+tree indexes. The engine exists as the substrate the paper assumes
// ("a relational database system"); the ordered-XML layer issues all of its
// SQL through this package, as statement text and parameters: the plan cache,
// keyed by that text, is the only statement cache.
//
// One statement path per direction. Every SELECT — and EXPLAIN [ANALYZE] — is
// a cursor (Rows) over one pinned catalog view, opened by DB.open; a Result is
// that cursor drained. Every DDL/DML statement runs through DB.exec.
//
// Concurrency: a DB is safe for concurrent use. Mutating statements (DML and
// DDL) serialize on the engine's write lock; after every mutation the engine
// publishes an immutable catalog View (copy-on-write snapshots of every
// table's heap and indexes) through an atomic pointer. Queries load that
// pointer and plan + execute entirely against the snapshot with no lock
// held, so readers never block behind writers and scale with cores. Each
// statement runs on the goroutine that opened it: the parallelism is across
// concurrent readers, never inside one statement. A Snapshot() pins one View
// across multiple statements for repeatable reads.
// Old snapshot versions are reclaimed by the garbage collector once the last
// reader drops them.
package sqldb

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ordxml/internal/govern"
	"ordxml/internal/obs"
	"ordxml/internal/sqldb/bufpool"
	"ordxml/internal/sqldb/catalog"
	"ordxml/internal/sqldb/exec"
	"ordxml/internal/sqldb/heap"
	"ordxml/internal/sqldb/plan"
	"ordxml/internal/sqldb/sqlparse"
	"ordxml/internal/sqldb/sqltypes"
)

// DB is one embedded database instance.
type DB struct {
	mu      sync.RWMutex
	cat     *catalog.Catalog
	plans   *planCache
	metrics *dbMetrics
	// view is the last published catalog snapshot; queries load it with no
	// lock held. Mutating statements republish it (cheap: unchanged tables
	// reuse their cached storage snapshots).
	view atomic.Pointer[catalog.View]
	// atomicDepth > 0 defers view publication to the enclosing Atomically
	// call, so a multi-statement operation appears to readers all at once.
	atomicDepth atomic.Int32
	publishes   *obs.Counter
	// tracer records the request-scoped span tree (disabled by default; one
	// atomic load per query when off).
	tracer *obs.Tracer
	// memBudget, when > 0, caps each statement's materialized footprint
	// (hash tables, sort buffers, result rows); over-budget statements abort
	// with govern.ErrMemoryBudget. A request-scoped accountant in the context
	// (govern.WithAccountant) takes precedence, so multi-statement requests
	// can share one budget.
	memBudget  atomic.Int64
	memMetrics *govern.MemMetrics
	// openCursors counts live streaming Rows cursors (published as
	// sqldb.cursors.open); a nonzero steady-state value indicates a caller
	// leaking cursors and the snapshot views pinned under them.
	openCursors atomic.Int64
}

// Open creates an empty database.
func Open() *DB { return openCat(catalog.New()) }

// OpenPooled creates an empty database whose heaps and index trees page
// through pool instead of plain RAM, enabling datasets larger than memory.
// The pool's metrics are published on the database's registry.
func OpenPooled(pool *bufpool.Pool) *DB {
	db := openCat(catalog.NewPooled(pool))
	pool.RegisterMetrics(db.metrics.reg)
	return db
}

func openCat(cat *catalog.Catalog) *DB {
	reg := obs.NewRegistry()
	db := &DB{cat: cat, plans: newPlanCache(reg), metrics: newDBMetrics(reg),
		tracer: obs.NewTracer(0), memMetrics: govern.NewMemMetrics(reg)}
	db.publishes = reg.Counter("sqldb.view.publishes")
	reg.RegisterFunc("sqldb.view.version", func() int64 {
		return int64(db.view.Load().Version())
	})
	reg.RegisterFunc("sqldb.cursors.open", db.openCursors.Load)
	db.registerStorageFuncs()
	db.publish()
	return db
}

// Pool returns the buffer pool backing this database's storage, or nil for an
// all-RAM database.
func (db *DB) Pool() *bufpool.Pool { return db.cat.Pool() }

// Tracer returns the request tracer. It is always non-nil; recording is off
// until SetEnabled(true).
func (db *DB) Tracer() *obs.Tracer { return db.tracer }

// startSpan begins a statement's span: a child of the span ctx carries, so
// nested engine calls join the caller's trace instead of forking one; with
// none, a new trace root unless the door is joinTrace. A nil span — tracing
// off, or nothing to hang it on — is free.
func (db *DB) startSpan(ctx context.Context, name string, d door) (context.Context, *obs.ActiveSpan) {
	if d != joinTrace && obs.FromContext(ctx) == nil {
		return db.tracer.StartRoot(ctx, name)
	}
	return obs.StartSpan(ctx, name)
}

// publish rebuilds and atomically installs the readers' catalog view. The
// caller must hold the write lock (or be the only goroutine with the DB, as
// in Open/Load). Inside an Atomically window publication is deferred to the
// window's end — any skipped publish is covered by that final one, which
// rebuilds the view from the live catalog.
func (db *DB) publish() {
	if db.atomicDepth.Load() > 0 {
		return
	}
	db.view.Store(db.cat.BuildView())
	db.publishes.Inc()
}

// Atomically runs fn — typically several mutating statements — and publishes
// a single catalog view when it returns, so concurrent readers observe all
// of fn's effects or none of them (statements before fn's first mutation
// keep seeing the prior view). Statements inside fn read the view published
// *before* the window: fn must issue its reads before the writes whose
// effects they would observe, which every multi-statement operation in this
// codebase already does. Nested calls publish once, at the outermost exit;
// the publish happens even when fn fails, since a failed multi-statement
// operation may have applied a prefix.
func (db *DB) Atomically(fn func() error) error {
	db.atomicDepth.Add(1)
	err := fn()
	if db.atomicDepth.Add(-1) == 0 {
		db.mu.Lock()
		db.publish()
		db.mu.Unlock()
	}
	return err
}

// SetMemoryBudget caps the bytes a single statement may materialize in
// pipeline-breaking operators (hash-join builds, sort buffers, DISTINCT and
// GROUP BY state) and the result set itself; statements that exceed it abort
// with an error matching govern.ErrMemoryBudget. n <= 0 removes the cap.
// A request-scoped accountant installed with govern.WithAccountant overrides
// the per-statement default, letting one budget govern a whole request.
func (db *DB) SetMemoryBudget(n int64) {
	if n < 0 {
		n = 0
	}
	db.memBudget.Store(n)
}

// MemoryBudget returns the per-statement memory cap (0 = unlimited).
func (db *DB) MemoryBudget() int64 { return db.memBudget.Load() }

// RequestAccountant returns a fresh accountant enforcing the DB's memory
// budget, for callers that want one budget to span a whole multi-statement
// request (install it with govern.WithAccountant on the request context).
// Returns nil when no budget is configured.
func (db *DB) RequestAccountant() *govern.Accountant {
	if b := db.memBudget.Load(); b > 0 {
		return govern.NewAccountant(b, db.memMetrics)
	}
	return nil
}

// accountant resolves the memory accountant for one statement: the request's
// own (carried in ctx, shared across every statement the request issues), or
// a fresh per-statement one when the DB has a budget configured, or nil.
func (db *DB) accountant(ctx context.Context) *govern.Accountant {
	if a := govern.AccountantFrom(ctx); a != nil {
		return a
	}
	if b := db.memBudget.Load(); b > 0 {
		return govern.NewAccountant(b, db.memMetrics)
	}
	return nil
}

// snapshotPlanner is what a SELECT plans against: the catalog view it will
// read, able to run the planner's sample plans on that view. Samples read
// through the view's unmetered twin with no span, context or budget: they
// are no statement, so sqldb.queries, the tracer and the storage.* counters
// never see them.
type snapshotPlanner struct {
	*catalog.View
	unmetered *catalog.View
}

func planOn(v *catalog.View) *snapshotPlanner { return &snapshotPlanner{View: v} }

// Sample implements plan.Sampler.
func (p *snapshotPlanner) Sample(n plan.Node) (map[plan.Node]int64, error) {
	if p.unmetered == nil {
		p.unmetered = p.View.Unmetered()
	}
	stats := map[plan.Node]*exec.OpStats{}
	op, err := exec.Open(n, nil, exec.Env{View: p.unmetered, Stats: stats})
	if err != nil {
		return nil, err
	}
	defer op.Close()
	for {
		_, ok, err := op.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	rows := make(map[plan.Node]int64, len(stats))
	for node, st := range stats {
		rows[node] = st.Rows
	}
	return rows, nil
}

// Catalog exposes the live catalog (used by tests and the stats reporting in
// the benchmark harness). Callers must not mutate tables concurrently with
// statements.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// CheckIntegrity validates the physical invariants of every table in the
// database — heap page structure, B+tree structure, and index/heap agreement
// — and returns a description of each violation (nil for a healthy
// database). It takes the database read lock for its full duration.
func (db *DB) CheckIntegrity() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	problems := db.cat.Validate()
	if pool := db.cat.Pool(); pool != nil {
		// Pooled storage adds: every allocated page id has one owner, and
		// every page the last checkpoint references verifies on disk.
		problems = append(problems, pool.CheckOwnership(db.cat.PageIDs())...)
		problems = append(problems, pool.VerifyDisk()...)
	}
	return problems
}

// Exec runs a statement that returns no rows (DDL or DML) and reports the
// number of rows affected (0 for DDL). DML plans are cached by SQL text, so
// repeated Exec calls skip parse and plan entirely.
func (db *DB) Exec(sql string, params ...sqltypes.Value) (int, error) {
	return db.exec(context.Background(), sql, params, joinTrace)
}

// ExecCtx is Exec with a caller context: when tracing is enabled the
// statement records a span — a new root when ctx carries none, otherwise a
// child of the ambient span (e.g. the durable store's mutation root).
func (db *DB) ExecCtx(ctx context.Context, sql string, params ...sqltypes.Value) (int, error) {
	return db.exec(ctx, sql, params, rootTrace)
}

// exec is the one path every DDL/DML statement takes: the sql.exec span, the
// write lock, the plan-cache lookup (else parse and plan), the run, the view
// republication and the sqldb.execs / sqldb.exec.latency record.
func (db *DB) exec(ctx context.Context, sql string, params []sqltypes.Value, d door) (n int, err error) {
	start := time.Now()
	_, sp := db.startSpan(ctx, "sql.exec", d)
	sp.ArgStr("sql", truncForTrace(sql))
	defer func() {
		db.metrics.recordExec(sql, time.Since(start), err)
		sp.Arg("rows", int64(n)).End()
	}()
	db.mu.Lock()
	defer db.mu.Unlock()
	// Republish the readers' view even on error. A failed DML statement has
	// undone its rows, so readers see the same data either way; the storage
	// under it may have been rewritten by the undo.
	defer db.publish()
	stmt, cached := db.plans.lookup(sql, db.cat.Version())
	if cached != nil {
		if isDMLPlan(cached) {
			return runDML(cached, params)
		}
		return 0, fmt.Errorf("use Query for SELECT statements")
	}
	if stmt == nil {
		if stmt, err = sqlparse.Parse(sql); err != nil {
			return 0, err
		}
	}
	return db.execParsed(sql, stmt, params)
}

func isDMLPlan(p any) bool {
	switch p.(type) {
	case *plan.InsertPlan, *plan.UpdatePlan, *plan.DeletePlan:
		return true
	}
	return false
}

// execParsed runs a parsed statement. The caller holds the write lock; sql
// keys the plan cache for DML (DDL is executed directly and, by bumping the
// catalog version, invalidates every cached plan).
func (db *DB) execParsed(sql string, stmt sqlparse.Statement, params []sqltypes.Value) (int, error) {
	switch s := stmt.(type) {
	case *sqlparse.CreateTable:
		return 0, db.createTable(s)
	case *sqlparse.CreateIndex:
		_, err := db.cat.CreateIndex(s.Name, s.Table, s.Columns, s.Unique)
		return 0, err
	case *sqlparse.DropTable:
		return 0, db.cat.DropTable(s.Name)
	case *sqlparse.DropIndex:
		return 0, db.cat.DropIndex(s.Name)
	case *sqlparse.Insert, *sqlparse.Update, *sqlparse.Delete:
		ver := db.cat.Version()
		p, err := plan.Plan(db.cat, stmt)
		if err != nil {
			return 0, err
		}
		db.plans.store(sql, stmt, ver, p)
		return runDML(p, params)
	case *sqlparse.Select:
		return 0, fmt.Errorf("use Query for SELECT statements")
	default:
		return 0, fmt.Errorf("cannot execute %T", stmt)
	}
}

func runDML(p any, params []sqltypes.Value) (int, error) {
	switch pl := p.(type) {
	case *plan.InsertPlan:
		return exec.RunInsert(pl, params)
	case *plan.UpdatePlan:
		return exec.RunUpdate(pl, params)
	case *plan.DeletePlan:
		return exec.RunDelete(pl, params)
	default:
		return 0, fmt.Errorf("unexpected plan %T", p)
	}
}

func (db *DB) createTable(s *sqlparse.CreateTable) error {
	cols := make([]catalog.Column, len(s.Columns))
	var pk []string
	for i, c := range s.Columns {
		cols[i] = catalog.Column{Name: c.Name, Type: c.Type, NotNull: c.NotNull}
		if c.PrimaryKey {
			pk = append(pk, c.Name)
		}
	}
	if _, err := db.cat.CreateTable(s.Name, cols); err != nil {
		return err
	}
	if len(pk) > 0 {
		if _, err := db.cat.CreateIndex(s.Name+"_pkey", s.Name, pk, true); err != nil {
			db.cat.DropTable(s.Name)
			return err
		}
	}
	return nil
}

// Query runs a SELECT and materializes the result. It takes no lock: the
// query plans and executes against the last published catalog view, while
// writers proceed concurrently. Plans are cached by SQL text and revalidated
// against the catalog version, so repeated queries skip parse and plan.
// EXPLAIN and EXPLAIN ANALYZE statements are also accepted: they return a
// single "plan" column with one row per plan line.
func (db *DB) Query(sql string, params ...sqltypes.Value) (*Result, error) {
	return materialize(db.open(context.Background(), db.view.Load(), sql, params, joinTrace))
}

// QueryCtx is Query with a caller context, which governs the statement
// (cancellation, deadline, the request's memory accountant) and, when the
// request tracer is enabled, places it: a trace root (or a child of the
// ambient span in ctx) covers planning and every operator of the execution.
func (db *DB) QueryCtx(ctx context.Context, sql string, params ...sqltypes.Value) (*Result, error) {
	return materialize(db.open(ctx, db.view.Load(), sql, params, rootTrace))
}

// truncForTrace bounds SQL text attached as a span annotation.
func truncForTrace(sql string) string {
	const max = 200
	if len(sql) > max {
		return sql[:max] + "…"
	}
	return sql
}

// selectPlan compiles (or fetches from the cache) the plan for a SELECT
// against catalog view v. Plans are keyed by the view's catalog version: a
// concurrent DDL publishes a newer version, so its readers miss and replan
// (from the cached AST) rather than reuse schema objects that are not in
// their view. EXPLAIN statements are returned unplanned and are never
// cached: open plans what they wrap.
func (db *DB) selectPlan(v *catalog.View, sql string) (plan.Node, *sqlparse.Explain, error) {
	ver := v.Version()
	stmt, cached := db.plans.lookup(sql, ver)
	if cached != nil {
		if node, ok := cached.(plan.Node); ok {
			return node, nil, nil
		}
		return nil, nil, fmt.Errorf("Query requires a SELECT statement")
	}
	if stmt == nil {
		var err error
		if stmt, err = sqlparse.Parse(sql); err != nil {
			return nil, nil, err
		}
	}
	if ex, ok := stmt.(*sqlparse.Explain); ok {
		return nil, ex, nil
	}
	sel, ok := stmt.(*sqlparse.Select)
	if !ok {
		return nil, nil, fmt.Errorf("Query requires a SELECT statement")
	}
	node, err := plan.PlanSelect(planOn(v), sel)
	if err != nil {
		return nil, nil, err
	}
	db.plans.store(sql, stmt, ver, node)
	return node, nil, nil
}

// analyzedPlan plans the SELECT under an EXPLAIN ANALYZE, uncached.
func (db *DB) analyzedPlan(v *catalog.View, ex *sqlparse.Explain) (plan.Node, error) {
	sel, ok := ex.Stmt.(*sqlparse.Select)
	if !ok {
		return nil, fmt.Errorf("EXPLAIN ANALYZE supports only SELECT statements")
	}
	return plan.PlanSelect(planOn(v), sel)
}

// ExplainAnalyzeCtx executes a SELECT with per-operator instrumentation and
// returns the plan tree annotated with actual row counts, loop counts and
// inclusive wall time per operator — `EXPLAIN ANALYZE <sql>` through QueryCtx,
// as one string under a sql.analyze span. ctx governs the run like any other
// statement's.
func (db *DB) ExplainAnalyzeCtx(ctx context.Context, sql string, params ...sqltypes.Value) (string, error) {
	res, err := materialize(db.open(ctx, db.view.Load(), sql, params, analyzeDoor))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, row := range res.Rows {
		b.WriteString(row[0].Text())
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// BulkInsert appends full-width rows (one value per table column, in
// declaration order) through the batch fast path: one write-lock
// acquisition, no SQL parse or plan, one heap append pass, and one sorted
// index-maintenance pass per index. Rows are constraint-checked exactly like
// INSERT, and an error leaves the table unchanged.
func (db *DB) BulkInsert(table string, rows []sqltypes.Row) (int, error) {
	if len(rows) == 0 {
		return 0, nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.publish()
	t := db.cat.Table(table)
	if t == nil {
		return 0, fmt.Errorf("no such table %s", table)
	}
	if _, err := t.BulkInsert(rows); err != nil {
		return 0, err
	}
	return len(rows), nil
}

// Explain returns the physical plan of a statement as text.
func (db *DB) Explain(sql string, params ...sqltypes.Value) (string, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return "", err
	}
	if e, ok := stmt.(*sqlparse.Explain); ok {
		stmt = e.Stmt
	}
	return db.explainText(db.view.Load(), stmt)
}

// explainText formats the plan of a parsed statement. SELECTs plan against
// view v (matching what Query runs); DML plans against the live catalog under
// the read lock, matching Exec.
func (db *DB) explainText(v *catalog.View, stmt sqlparse.Statement) (string, error) {
	var p any
	var err error
	if sel, ok := stmt.(*sqlparse.Select); ok {
		p, err = plan.PlanSelect(planOn(v), sel)
	} else {
		db.mu.RLock()
		p, err = plan.Plan(db.cat, stmt)
		db.mu.RUnlock()
	}
	if err != nil {
		return "", err
	}
	switch pl := p.(type) {
	case plan.Node:
		return plan.Explain(pl), nil
	case *plan.InsertPlan:
		return fmt.Sprintf("Insert %s (%d rows)\n", pl.Table.Name, len(pl.Rows)), nil
	case *plan.UpdatePlan:
		return "Update " + pl.Table.Name + "\n" + plan.Explain(pl.Scan), nil
	case *plan.DeletePlan:
		return "Delete " + pl.Table.Name + "\n" + plan.Explain(pl.Scan), nil
	default:
		return "", fmt.Errorf("cannot explain %T", p)
	}
}

// Snap pins one published catalog view so several statements observe the
// same snapshot — no writer, concurrent or otherwise, is visible through it.
// A Snap is immutable and safe for concurrent use; dropping every reference
// releases the underlying storage snapshots to the garbage collector.
type Snap struct {
	db *DB
	v  *catalog.View
}

// Snapshot pins the current published view.
func (db *DB) Snapshot() *Snap { return &Snap{db: db, v: db.view.Load()} }

// TableStats reports a table's heap occupancy as of the last published view,
// without locking (safe against concurrent writers). ok is false when the
// table does not exist.
func (db *DB) TableStats(name string) (st heap.Stats, ok bool) {
	v := db.view.Load()
	t := v.Table(name)
	if t == nil {
		return heap.Stats{}, false
	}
	return v.Data(t).HeapStats(), true
}

// Version reports the catalog version the snapshot was published at.
func (s *Snap) Version() uint64 { return s.v.Version() }

// Query runs a SELECT against the pinned snapshot and materializes the
// result; ctx governs it and, when it carries a span, places it in a trace.
func (s *Snap) Query(ctx context.Context, sql string, params ...sqltypes.Value) (*Result, error) {
	return materialize(s.db.open(ctx, s.v, sql, params, joinTrace))
}

// Convenience constructors so engine callers do not import sqltypes
// everywhere.

// I returns an INT parameter value.
func I(v int64) sqltypes.Value { return sqltypes.NewInt(v) }

// S returns a TEXT parameter value.
func S(v string) sqltypes.Value { return sqltypes.NewText(v) }

// B returns a BLOB parameter value. Like sqltypes.NewBlob it aliases v,
// which the caller must not write to afterwards.
func B(v []byte) sqltypes.Value { return sqltypes.NewBlob(v) }

// F returns a REAL parameter value.
func F(v float64) sqltypes.Value { return sqltypes.NewReal(v) }

// Null returns the NULL parameter value.
func Null() sqltypes.Value { return sqltypes.NullValue() }
