// Package translate evaluates the ordered XPath fragment over the
// relational encodings by compiling location paths into SQL. Per the paper:
//
//   - Structural joins (child, parent, sibling ranges, descendant ranges)
//     become joins of the node table that the engine executes as correlated
//     index lookups, probing in key order.
//   - Ordered output is the final statement's ORDER BY on the order key
//     (Global, Dewey). A chain from the root orders by every step's key,
//     which the planner delivers from its index joins without sorting. The
//     Local encoding has no document-order column, so results are sorted
//     client-side by their root-to-node vectors of sibling positions — the
//     cost the paper attributes to local order.
//   - The descendant axis is an index range scan of the order key: under
//     Dewey the range is the path prefix, under Global it runs to the order
//     key of the first node past the subtree. Local has no such range:
//     descendants are found by node test and kept when an ancestor is a
//     context node. Experiment E3 quantifies the difference.
//   - Positional predicates ([k], [position() op k], [last()]) are applied
//     by an ordered post-processing step over the SQL result, grouped by the
//     node each match was reached from, whose id the SQL carries.
//
// A path is split into segments, each a maximal chain of steps compiled into
// one SQL statement; boundaries fall after a step with positional predicates,
// around ancestor steps, and before a Global/Local descendant step, whose
// bounds depend on the context nodes. Evaluation is set-at-a-time: a
// follow-up segment's statement reads the whole context set as a relation
// parameter (`FROM ? c (id, parent, ord), nodes n1 ...`), so a query runs one
// statement per segment whatever the size of the set, plus one per tree level
// where parent links are needed (see loadChains).
package translate

import (
	"context"
	"fmt"
	"slices"
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

	// mu guards lastSQL; per-query scratch state lives in a run value so
	// concurrent readers never share it. Statements are not cached here: the
	// engine's plan cache, keyed by SQL text and LRU-bounded, spares a
	// repeated statement its parse and plan.
	mu      sync.Mutex
	lastSQL []string

	met evalMetrics
}

// evalMetrics are the evaluator's always-on instruments, hung on the DB's
// registry so Store.Metrics() sees the XPath pipeline next to the SQL engine.
// Where a query's time went (parse, translate, segment, sql.query, ancestry,
// positional, sort) is the request tracer's job, not a metric's.
type evalMetrics struct {
	queries *obs.Counter   // xpath.queries
	total   *obs.Histogram // xpath.query.latency
}

// run is the per-query evaluation context: the pinned storage snapshot every
// statement of the query reads (one XPath query = one consistent view across
// the statements of a multi-segment path), the chain table (see loadChains)
// and the generated SQL.
type run struct {
	*Evaluator
	snap  *sqldb.Snap
	chain map[int64]link
	sqls  []string
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
// a client-side loop over a node set (decoding, ancestry walks, interval
// bounds, local order keys). The executor polls inside each statement; this
// covers the work between statements.
func (r *run) poll() error {
	r.polls++
	if r.polls%govern.PollInterval != 0 {
		return nil
	}
	return govern.CtxErr(r.ctx)
}

// each runs one generated statement against the query's snapshot, with rel
// bound to its relation parameter if it has one, and hands fn every result row
// (valid during the call only). Under the request trace on a pooled store it
// also attaches a per-statement bufpool delta event.
func (r *run) each(sql string, rel relation, fn func(sqltypes.Row) error) error {
	var params []sqltypes.Value
	if rel != nil {
		params = []sqltypes.Value{sqltypes.NewBlob(rel)}
	}
	if !slices.Contains(r.sqls, sql) {
		r.sqls = append(r.sqls, sql)
	}
	if sp := obs.FromContext(r.ctx); sp != nil && r.pool != nil {
		before := r.pool.Stats()
		defer func() {
			after := r.pool.Stats()
			sp.Event("bufpool.delta",
				obs.Arg{Key: "hits", Val: after.Hits - before.Hits},
				obs.Arg{Key: "misses", Val: after.Misses - before.Misses},
				obs.Arg{Key: "evictions", Val: after.Evictions - before.Evictions},
				obs.Arg{Key: "dirty_flushes", Val: after.DirtyFlushes - before.DirtyFlushes})
		}()
	}
	rows, err := r.snap.QueryRows(r.ctx, sql, params...)
	if err != nil {
		return err
	}
	defer rows.Close()
	for rows.Next() {
		if err := fn(rows.Row()); err != nil {
			return err
		}
	}
	return rows.Err()
}

// New prepares an evaluator. The encoding must be installed.
func New(db *sqldb.DB, opts encoding.Options) (*Evaluator, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if !encoding.Installed(db, opts) {
		return nil, fmt.Errorf("encoding %s is not installed", opts.Kind)
	}
	return &Evaluator{
		db: db, opts: opts,
		tbl: opts.NodesTable(), ord: opts.OrderColumn(),
		met: evalMetrics{
			queries: db.Registry().Counter("xpath.queries"),
			total:   db.Registry().Histogram("xpath.query.latency"),
		},
	}, nil
}

// Options returns the evaluator's encoding options.
func (e *Evaluator) Options() encoding.Options { return e.opts }

// LastSQL returns the distinct SQL statements the most recent query ran, in
// order of first execution: one per segment, plus the level-wise statements
// of the chain table and of Global's interval bounds, each of which runs once
// per tree level. With concurrent queries it reflects whichever finished
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
// planner and operator spans, ancestry, positional, sort) records one span
// tree, rooted here unless ctx already carries a span.
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
	r := &run{Evaluator: e, snap: snap, chain: map[int64]link{}, ctx: ctx, pool: e.db.Pool()}
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

// evalPath runs the parsed path's segments in order. Under Global and Dewey
// the final statement's ORDER BY delivers document order, which the
// per-segment dedupe and positional filter keep; only Local results and a
// final ancestor segment, whose nodes come in context order, are sorted here.
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
		nodes, err = r.runSegment(doc, seg, nodes)
		segSp.End()
		if err != nil {
			return nil, err
		}
		if len(nodes) == 0 {
			return nil, nil
		}
	}
	if r.opts.Kind != encoding.Local && segs[len(segs)-1].steps[0].Axis != xpath.Ancestor {
		return nodes, nil
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
// marks a Local descendant segment, whose statement finds nodes by node test
// alone: its results are kept when an ancestor is in the context set. first
// and last mark the path's first and final segments.
type segment struct {
	steps         []xpath.Step
	ancestryCheck bool
	first, last   bool
}

// splitSegments partitions the path. Boundaries fall after a step carrying
// positional predicates, around ancestor steps, and before a Global/Local
// descendant step.
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
			// Ancestor steps are evaluated from the chain table (under Dewey
			// the ancestors are the path's prefixes; the walk is equivalent
			// and uniform): always their own segment.
			if i == 0 {
				return nil, fmt.Errorf("ancestor axis cannot start an absolute path")
			}
			flush()
			cur = segment{steps: []xpath.Step{s}}
			flush()
			continue
		}
		if s.Axis == xpath.Descendant && kind != encoding.Dewey && i > 0 {
			// The step's bounds come from the materialised context set:
			// Global binds it to one order-key interval per context node and
			// joins on from there, Local filters it client-side, so later
			// steps cannot join below it in the same statement.
			flush()
			if kind == encoding.Local {
				segs = append(segs, segment{steps: []xpath.Step{s}, ancestryCheck: true})
				continue
			}
		}
		cur.steps = append(cur.steps, s)
		if hasPosPred(s) {
			flush()
		}
	}
	flush()
	if len(segs) > 0 {
		segs[0].first, segs[len(segs)-1].last = true, true
	}
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

// sortDocOrder sorts refs into document order. Global and Dewey order keys
// compare directly; Local compares root-to-node lorder vectors built from
// the chain table (the encoding's documented cost).
func (r *run) sortDocOrder(doc int64, refs []NodeRef) error {
	if r.opts.Kind != encoding.Local {
		sort.SliceStable(refs, func(i, j int) bool {
			return sqltypes.Compare(refs[i].Order, refs[j].Order) < 0
		})
		return nil
	}
	if err := r.loadChains(doc, len(refs), func(i int) int64 { return refs[i].Parent }); err != nil {
		return err
	}
	type keyed struct {
		ref NodeRef
		key []int64
	}
	items := make([]keyed, len(refs))
	for i, ref := range refs {
		if err := r.poll(); err != nil {
			return err
		}
		key := append(make([]int64, 0, 8), ref.Order.Int())
		for id := ref.Parent; id != 0; {
			l := r.chain[id]
			key, id = append(key, l.ord), l.parent
		}
		slices.Reverse(key)
		items[i] = keyed{ref, key}
	}
	// Distinct nodes have distinct vectors, so the order is total. The
	// comparison polls for cancellation: once it fires, the sort runs out on a
	// constant comparison and its result is discarded.
	var err error
	slices.SortFunc(items, func(a, b keyed) int {
		if err == nil {
			err = r.poll()
		}
		if err != nil {
			return 0
		}
		return slices.Compare(a.key, b.key)
	})
	for i := range items {
		refs[i] = items[i].ref
	}
	return err
}
