// Package translate evaluates the ordered XPath fragment over the
// relational encodings by compiling location paths into SQL. Per the paper:
//
//   - Structural joins (child, parent, sibling ranges, Dewey descendant
//     prefixes) become self-joins of the node table that the engine executes
//     as correlated index lookups.
//   - Ordered output comes from ORDER BY on the order key (Global, Dewey);
//     the Local encoding has no document-order column, so results are sorted
//     client-side using ancestor chains fetched through point lookups — the
//     cost the paper attributes to local order.
//   - The descendant axis is a pure index range scan under Dewey; under
//     Global and Local, ancestry is verified by walking parent links with
//     point lookups (there is no recursive SQL), which experiment E3
//     quantifies.
//   - Positional predicates ([k], [position() op k], [last()]) are applied
//     by an ordered post-processing step over the SQL result, grouped by
//     context node; the SQL carries every step's id/parent/order key so the
//     grouping needs no further queries.
//
// A path is split into segments: a maximal chain of steps is compiled into
// one SQL statement; segment boundaries fall after any step with positional
// predicates and before a descendant step that the encoding cannot express
// in SQL (Global/Local). Follow-up segments run one indexed query per
// context node.
package translate

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"ordxml/internal/core/encoding"
	"ordxml/internal/core/xpath"
	"ordxml/internal/govern"
	"ordxml/internal/obs"
	"ordxml/internal/sqldb"
	"ordxml/internal/sqldb/bufpool"
	"ordxml/internal/sqldb/sqltypes"
	"ordxml/internal/xmltree"
)

// NodeRef identifies one matched node.
type NodeRef struct {
	ID     int64
	Parent int64 // 0 for the document root
	Kind   xmltree.Kind
	Tag    string
	Value  string
	// Order is the encoding-specific order key (INT for global/local, BLOB
	// or TEXT for Dewey).
	Order sqltypes.Value
}

// Evaluator compiles and runs XPath queries for one encoding.
type Evaluator struct {
	db   *sqldb.DB
	opts encoding.Options
	tbl  string
	ord  string

	// mu guards the prepared-statement cache and lastSQL; per-query scratch
	// state lives in a run value so concurrent readers never share it.
	mu      sync.Mutex
	stmts   map[string]*sqldb.Stmt
	lastSQL []string

	parentStmt *sqldb.Stmt
	nodeStmt   *sqldb.Stmt

	met evalMetrics
}

// evalMetrics are the evaluator's always-on instruments, hung on the DB's
// registry so Store.Metrics() sees the XPath pipeline next to the SQL engine.
// Where a query's time went (parse, translate, segment, sql.query, post,
// sort) is the request tracer's job, not a metric's.
type evalMetrics struct {
	queries *obs.Counter   // xpath.queries
	total   *obs.Histogram // xpath.query.latency
}

// run is the per-query evaluation context: the pinned storage snapshot every
// statement of the query reads (one XPath query = one consistent view, even
// across the many SQL statements of a multi-segment path), memoized point
// lookups (reset per query so work counters stay honest) and the generated
// SQL.
type run struct {
	*Evaluator
	snap       *sqldb.Snap
	parentMemo map[int64]parentInfo
	nodeMemo   map[int64]NodeRef
	sqls       []string
	// ctx carries the request span when the query is traced; statements run
	// through it so planner and operator spans land in the request's tree.
	ctx context.Context
	// pool, when non-nil alongside an active span, lets each statement
	// execution emit a bufpool fetch/evict/flush delta event.
	pool *bufpool.Pool
	// polls counts client-side loop iterations for cooperative cancellation
	// (see run.poll).
	polls int
}

// poll checks the request context once per govern.PollInterval iterations of
// a client-side loop (per-context statement fan-out, ancestry walks, local
// order-key construction). The executor polls inside each statement, but a
// point lookup returns long before its first poll interval — a path that
// fans out into thousands of tiny statements would otherwise never observe
// cancellation.
func (r *run) poll() error {
	r.polls++
	if r.polls%govern.PollInterval != 0 {
		return nil
	}
	return govern.CtxErr(r.ctx)
}

// exec runs one execution of a segment's statement. Under the request trace
// on a pooled store it also attaches a per-statement bufpool delta event.
func (r *run) exec(stmt *sqldb.Stmt, params []sqltypes.Value) (*sqldb.Result, error) {
	sp := obs.FromContext(r.ctx)
	if sp == nil || r.pool == nil {
		return stmt.QueryAtCtx(r.ctx, r.snap, params...)
	}
	before := r.pool.Stats()
	res, err := stmt.QueryAtCtx(r.ctx, r.snap, params...)
	after := r.pool.Stats()
	sp.Event("bufpool.delta",
		obs.Arg{Key: "hits", Val: after.Hits - before.Hits},
		obs.Arg{Key: "misses", Val: after.Misses - before.Misses},
		obs.Arg{Key: "evictions", Val: after.Evictions - before.Evictions},
		obs.Arg{Key: "dirty_flushes", Val: after.DirtyFlushes - before.DirtyFlushes})
	return res, err
}

type parentInfo struct {
	parent int64
	lorder int64
	known  bool
}

// New prepares an evaluator. The encoding must be installed.
func New(db *sqldb.DB, opts encoding.Options) (*Evaluator, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if !encoding.Installed(db, opts) {
		return nil, fmt.Errorf("encoding %s is not installed", opts.Kind)
	}
	e := &Evaluator{
		db: db, opts: opts,
		tbl: opts.NodesTable(), ord: opts.OrderColumn(),
		stmts: map[string]*sqldb.Stmt{},
		met: evalMetrics{
			queries: db.Registry().Counter("xpath.queries"),
			total:   db.Registry().Histogram("xpath.query.latency"),
		},
	}
	var err error
	e.parentStmt, err = db.Prepare(fmt.Sprintf(
		`SELECT parent, %s FROM %s WHERE doc = ? AND id = ?`, e.ord, e.tbl))
	if err != nil {
		return nil, err
	}
	e.nodeStmt, err = db.Prepare(fmt.Sprintf(
		`SELECT id, parent, %s, kind, tag, value FROM %s WHERE doc = ? AND id = ?`, e.ord, e.tbl))
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Options returns the evaluator's encoding options.
func (e *Evaluator) Options() encoding.Options { return e.opts }

// LastSQL returns the SQL statements generated by the most recent query, in
// execution order (deduplicated per segment; per-context executions reuse
// one statement). With concurrent queries it reflects whichever finished
// last; Explain returns a run's own statements.
func (e *Evaluator) LastSQL() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.lastSQL...)
}

// Query is QueryAtCtx with a background context and a snapshot of its own.
func (e *Evaluator) Query(doc int64, path string) ([]NodeRef, error) {
	return e.QueryAtCtx(context.Background(), nil, doc, path)
}

// QueryAtCtx parses and evaluates an absolute XPath expression against one
// document, returning matches in document order. The whole evaluation runs
// against one pinned storage snapshot, so concurrent updates are invisible
// to a query in flight: snap when the caller pinned one to compose the query
// with other reads at the same version (e.g. value extraction), otherwise
// (nil) one the query pins itself. When the engine's request tracer is
// enabled the whole pipeline (parse, translate, every SQL statement with
// planner and operator spans, post, sort) records one span tree, rooted
// here unless ctx already carries a span.
func (e *Evaluator) QueryAtCtx(ctx context.Context, snap *sqldb.Snap, doc int64, path string) ([]NodeRef, error) {
	refs, _, err := e.evaluate(ctx, snap, doc, path)
	return refs, err
}

// Explain evaluates the path like QueryAtCtx and returns the SQL statements
// that evaluation generated (see LastSQL for their shape).
func (e *Evaluator) Explain(ctx context.Context, doc int64, path string) ([]string, error) {
	_, sqls, err := e.evaluate(ctx, nil, doc, path)
	return sqls, err
}

func (e *Evaluator) evaluate(ctx context.Context, snap *sqldb.Snap, doc int64, path string) ([]NodeRef, []string, error) {
	var root *obs.ActiveSpan
	if obs.FromContext(ctx) == nil {
		ctx, root = e.db.Tracer().StartRoot(ctx, "xpath.query")
		root.ArgStr("path", path)
	}
	defer root.End()
	start := time.Now()
	psp := obs.FromContext(ctx).StartChild("parse")
	p, err := xpath.Parse(path)
	psp.End()
	if err != nil {
		return nil, nil, err
	}
	if snap == nil {
		snap = e.db.Snapshot()
	}
	r := &run{
		Evaluator:  e,
		snap:       snap,
		parentMemo: map[int64]parentInfo{},
		nodeMemo:   map[int64]NodeRef{},
		ctx:        ctx,
		pool:       e.db.Pool(),
	}
	refs, err := r.evalPath(ctx, doc, p)
	e.met.queries.Inc()
	e.met.total.Observe(time.Since(start))
	if err != nil {
		return nil, nil, err
	}
	e.mu.Lock()
	e.lastSQL = r.sqls
	e.mu.Unlock()
	root.Arg("results", int64(len(refs)))
	return refs, r.sqls, nil
}

// evalPath runs the parsed path's segments in order and sorts the final
// node set into document order.
func (r *run) evalPath(ctx context.Context, doc int64, p *xpath.Path) ([]NodeRef, error) {
	tsp := obs.FromContext(ctx).StartChild("translate")
	segs, err := splitSegments(p, r.opts.Kind)
	tsp.End()
	if err != nil {
		return nil, err
	}
	var nodes []NodeRef
	for i, seg := range segs {
		segSp := obs.FromContext(ctx).StartChild("segment").Arg("index", int64(i))
		r.ctx = obs.ContextWith(ctx, segSp)
		nodes, err = r.runSegment(doc, seg, nodes, i == 0)
		segSp.End()
		if err != nil {
			return nil, err
		}
		if len(nodes) == 0 {
			return nil, nil
		}
	}
	ssp := obs.FromContext(ctx).StartChild("sort")
	r.ctx = obs.ContextWith(ctx, ssp)
	err = r.sortDocOrder(doc, nodes)
	ssp.End()
	if err != nil {
		return nil, err
	}
	return nodes, nil
}

// segment is a run of steps compiled into one SQL statement. ancestryCheck
// marks a Global/Local descendant segment whose results must be filtered by
// walking parent chains against the context set.
type segment struct {
	steps         []xpath.Step
	ancestryCheck bool
}

// splitSegments partitions the path. Boundaries fall after a step carrying
// positional predicates and around descendant steps that Global/Local
// cannot express in SQL.
func splitSegments(p *xpath.Path, kind encoding.Kind) ([]segment, error) {
	if !p.Absolute {
		return nil, fmt.Errorf("only absolute paths can be evaluated against a document")
	}
	var segs []segment
	cur := segment{}
	flush := func() {
		if len(cur.steps) > 0 {
			segs = append(segs, cur)
			cur = segment{}
		}
	}
	for i, s := range p.Steps {
		if err := validateStep(s); err != nil {
			return nil, err
		}
		if s.Axis == xpath.Ancestor {
			// Ancestor steps are evaluated client-side by walking parent
			// links (under Dewey the ancestors are the path's prefixes; the
			// walk is equivalent and uniform): always their own segment.
			if i == 0 {
				return nil, fmt.Errorf("ancestor axis cannot start an absolute path")
			}
			flush()
			cur = segment{steps: []xpath.Step{s}}
			flush()
			continue
		}
		if s.Axis == xpath.Descendant && kind != encoding.Dewey && i > 0 {
			// Global/Local descendant: its own segment with ancestry check.
			flush()
			cur = segment{steps: []xpath.Step{s}, ancestryCheck: true}
			if hasPosPred(s) {
				flush()
				continue
			}
			// Later steps cannot join below a client-filtered set in the
			// same statement.
			flush()
			continue
		}
		cur.steps = append(cur.steps, s)
		if hasPosPred(s) {
			flush()
		}
	}
	flush()
	return segs, nil
}

func hasPosPred(s xpath.Step) bool {
	for _, p := range s.Preds {
		if p.Kind == xpath.PredPos || p.Kind == xpath.PredLast {
			return true
		}
	}
	return false
}

// validateStep rejects constructs outside the supported fragment.
func validateStep(s xpath.Step) error {
	if s.Axis == xpath.Ancestor {
		for _, p := range s.Preds {
			if p.Kind == xpath.PredValue || p.Kind == xpath.PredExists {
				return fmt.Errorf("value predicates on the ancestor axis are not supported")
			}
		}
	}
	for _, p := range s.Preds {
		if p.Path == nil {
			continue
		}
		for _, ps := range p.Path.Steps {
			if ps.Axis != xpath.Child && ps.Axis != xpath.Attribute {
				return fmt.Errorf("predicate paths support child and attribute steps only, got %s", ps.Axis)
			}
			if len(ps.Preds) > 0 {
				return fmt.Errorf("nested predicates are not supported")
			}
		}
	}
	return nil
}

// prepare caches prepared statements by SQL text (shared across queries).
func (e *Evaluator) prepare(sql string) (*sqldb.Stmt, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s, ok := e.stmts[sql]; ok {
		return s, nil
	}
	s, err := e.db.Prepare(sql)
	if err != nil {
		return nil, fmt.Errorf("generated SQL failed to prepare: %w\nSQL: %s", err, sql)
	}
	e.stmts[sql] = s
	return s, nil
}

// parentOf returns (parent id, local order) of a node through the memoized
// point-lookup path.
func (r *run) parentOf(doc, id int64) (parentInfo, error) {
	if err := r.poll(); err != nil {
		return parentInfo{}, err
	}
	if info, ok := r.parentMemo[id]; ok {
		return info, nil
	}
	res, err := r.parentStmt.QueryAtCtx(r.ctx, r.snap, sqldb.I(doc), sqldb.I(id))
	if err != nil {
		return parentInfo{}, err
	}
	info := parentInfo{}
	if len(res.Rows) > 0 {
		info.known = true
		if !res.Rows[0][0].IsNull() {
			info.parent = res.Rows[0][0].Int()
		}
		if r.opts.Kind == encoding.Local {
			info.lorder = res.Rows[0][1].Int()
		}
	}
	r.parentMemo[id] = info
	return info, nil
}

// sortDocOrder sorts refs into document order. Global and Dewey order keys
// compare directly; Local materializes ancestor-chain keys through point
// lookups (the encoding's documented cost).
func (r *run) sortDocOrder(doc int64, refs []NodeRef) error {
	if r.opts.Kind != encoding.Local {
		sort.SliceStable(refs, func(i, j int) bool {
			return sqltypes.Compare(refs[i].Order, refs[j].Order) < 0
		})
		return nil
	}
	keys := make(map[int64][]int64, len(refs))
	for _, ref := range refs {
		k, err := r.localKey(doc, ref)
		if err != nil {
			return err
		}
		keys[ref.ID] = k
	}
	sort.SliceStable(refs, func(i, j int) bool {
		return compareIntSlices(keys[refs[i].ID], keys[refs[j].ID]) < 0
	})
	return nil
}

// localKey builds the root-to-node lorder vector.
func (r *run) localKey(doc int64, ref NodeRef) ([]int64, error) {
	var rev []int64
	rev = append(rev, ref.Order.Int())
	id := ref.Parent
	for id != 0 {
		info, err := r.parentOf(doc, id)
		if err != nil {
			return nil, err
		}
		if !info.known {
			return nil, fmt.Errorf("node %d missing while building local order", id)
		}
		rev = append(rev, info.lorder)
		id = info.parent
	}
	out := make([]int64, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = v
	}
	return out, nil
}

func compareIntSlices(a, b []int64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}
