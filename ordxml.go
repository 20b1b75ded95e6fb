// Package ordxml stores and queries ordered XML in an embedded relational
// database, reproducing Tatarinov et al., "Storing and Querying Ordered XML
// Using a Relational Database System" (SIGMOD 2002).
//
// A Store shreds XML documents into relations under one of three order
// encodings — Global, Local or Dewey — translates an ordered XPath fragment
// into SQL over those relations, applies order-preserving updates, and
// reconstructs documents or subtrees. The encodings differ only in how
// document order is represented as data, which drives the paper's
// query/update trade-offs; the API is identical across them.
//
// Quick start:
//
//	store, _ := ordxml.Open(ordxml.Options{Encoding: ordxml.Dewey})
//	doc, _ := store.LoadString("plays", "<PLAY>...</PLAY>")
//	hits, _ := store.Query(doc, "/PLAY/ACT[2]/SCENE[1]/SPEECH/SPEAKER")
//	speaker, _ := store.Serialize(doc, hits[0].ID)
//	store.Insert(doc, hits[0].ID, ordxml.After, "<LINE>O brave new world</LINE>")
package ordxml

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"ordxml/internal/core/check"
	"ordxml/internal/core/encoding"
	"ordxml/internal/core/publish"
	"ordxml/internal/core/shred"
	"ordxml/internal/core/translate"
	"ordxml/internal/core/update"
	"ordxml/internal/obs"
	olog "ordxml/internal/obs/log"
	"ordxml/internal/sqldb"
	"ordxml/internal/sqldb/sqltypes"
	"ordxml/internal/wal"
	"ordxml/internal/xmltree"
)

// Encoding selects the order encoding.
type Encoding int

// The three order encodings of the paper.
const (
	// Global encodes each node's absolute position in document order.
	// Ordered queries are cheap; inserts may renumber the whole document.
	Global Encoding = iota
	// Local encodes each node's position among its siblings. Inserts only
	// renumber following siblings; materializing document order requires
	// joining ancestors.
	Local
	// Dewey encodes the full path of sibling ordinals. Ancestry and
	// document order are both byte comparisons on the key; inserts renumber
	// following siblings together with their subtrees.
	Dewey
)

// String returns the encoding name.
func (e Encoding) String() string { return encoding.Kind(e).String() }

// ParseEncoding reads an encoding name ("global", "local", "dewey").
func ParseEncoding(s string) (Encoding, error) {
	k, err := encoding.ParseKind(s)
	return Encoding(k), err
}

// Options configure a Store.
type Options struct {
	Encoding Encoding
	// Gap spaces consecutive order values (default 1, dense). Larger gaps
	// let inserts claim unused values and amortize renumbering.
	Gap uint32
	// DeweyAsText stores Dewey keys as padded strings instead of the binary
	// codec (larger, slower; kept for the paper's codec ablation).
	DeweyAsText bool
	// BufferPoolFrames sizes the buffer pool every OpenDurable store pages
	// its heaps and indexes through: the number of 8 KiB pages kept resident
	// over the on-disk page file. Zero or negative means DefaultPoolFrames.
	// It selects nothing else — a durable store can always hold more data
	// than RAM and always checkpoints incrementally — and the memory-only
	// Open ignores it.
	BufferPoolFrames int
}

// WithBufferPool returns default Options with an n-frame buffer pool, for
// the common ordxml.OpenDurable(dir, ordxml.WithBufferPool(n)) call; n sizes
// the pool and nothing else (see Options.BufferPoolFrames).
func WithBufferPool(n int) Options { return Options{BufferPoolFrames: n} }

// DocID identifies a stored document.
type DocID = int64

// NodeID identifies a node within a document.
type NodeID = int64

// NodeKind classifies a matched node.
type NodeKind int

// Node kinds.
const (
	ElementNode NodeKind = iota
	AttributeNode
	TextNode
)

// String returns the kind name.
func (k NodeKind) String() string {
	return [...]string{"element", "attribute", "text"}[k]
}

// Node is one XPath query match.
type Node struct {
	ID   NodeID
	Kind NodeKind
	// Tag is the element tag or attribute name (empty for text nodes).
	Tag string
	// Value is the attribute value or text content (empty for elements;
	// use Serialize or QueryValues for element content).
	Value string
	// OrderKey is a human-readable rendering of the encoding's order key
	// (e.g. "1.2.3" for Dewey).
	OrderKey string
}

// Position places an inserted fragment relative to the target node.
type Position = update.Mode

// Insert positions.
const (
	FirstChild = update.FirstChild
	LastChild  = update.LastChild
	Before     = update.Before
	After      = update.After
)

// ParsePosition reads a position name as spelled by Position.String
// ("first-child", "last-child", "before", "after").
func ParsePosition(s string) (Position, error) { return update.ParseMode(s) }

// UpdateReport describes the work an update performed: NewID is the
// inserted subtree root's node id (inserts only), and RowsInserted,
// RowsRenumbered and RowsDeleted quantify the update per the paper's cost
// model, where renumbering is the order-maintenance cost.
type UpdateReport = update.Stats

// DocInfo describes one stored document.
type DocInfo struct {
	ID    DocID
	Name  string
	Nodes int64
}

// Store is one ordered-XML store over an embedded relational database.
// A Store is safe for concurrent use: updates serialize on the engine's
// writer lock per statement, while readers (Query, QueryValues, Serialize,
// SQL) run lock-free against immutable storage snapshots the engine
// publishes after every mutation. A multi-statement read — an XPath query's
// segment pipeline, a document serialization, QueryValues' value extraction
// — pins one snapshot for its whole run, so concurrent updates can never
// tear its view of a document.
type Store struct {
	db   *sqldb.DB
	opts encoding.Options

	shredder  *shred.Shredder
	publisher *publish.Publisher
	evaluator *translate.Evaluator
	manager   *update.Manager

	// dur is the durability state for stores opened with OpenDurable; nil
	// for memory-only stores. See durable.go.
	dur *durState

	// gov is the store's governance state: query timeout, admission gate and
	// the degraded read-only flag. See govern.go.
	gov storeGovern
}

// Open creates an empty store with its own embedded database.
func Open(opts Options) (*Store, error) {
	iopts, err := internalOpts(opts)
	if err != nil {
		return nil, err
	}
	return bootstrapStore(sqldb.Open(), iopts)
}

// internalOpts validates the public options and converts them to the
// internal encoding options.
func internalOpts(opts Options) (encoding.Options, error) {
	iopts := encoding.Options{
		Kind:        encoding.Kind(opts.Encoding),
		Gap:         opts.Gap,
		DeweyAsText: opts.DeweyAsText,
	}
	return iopts, iopts.Validate()
}

// bootstrapStore installs the node schema and store metadata on a fresh
// database and builds the component stack over it.
func bootstrapStore(db *sqldb.DB, iopts encoding.Options) (*Store, error) {
	if err := encoding.Install(db, iopts); err != nil {
		return nil, err
	}
	if err := installMeta(db, iopts); err != nil {
		return nil, err
	}
	return newStoreOn(db, iopts)
}

// Encoding returns the store's order encoding.
func (s *Store) Encoding() Encoding { return Encoding(s.opts.Kind) }

// Load parses an XML document from r and stores it. On a durable store the
// raw document bytes are logged (and fsynced) before shredding, so the
// reader is consumed fully up front.
func (s *Store) Load(name string, r io.Reader) (DocID, error) {
	return s.LoadCtx(context.Background(), name, r)
}

// LoadCtx is Load with a caller context: cancellation is observed before the
// operation is logged (a mutation is never aborted mid-apply — once its WAL
// record is durable, it completes), and the load joins the request trace.
func (s *Store) LoadCtx(ctx context.Context, name string, r io.Reader) (DocID, error) {
	ctx, root := s.rootSpan(ctx, "store.load")
	defer root.End()
	if s.dur == nil {
		return s.shredder.Load(name, r)
	}
	xml, err := io.ReadAll(r)
	if err != nil {
		return 0, err
	}
	unlock, err := s.logOp(ctx, recLoad, func(w *wal.BodyWriter) {
		w.String(name)
		w.Bytes(xml)
	})
	if err != nil {
		return 0, err
	}
	defer unlock()
	return s.applyLoad(name, xml)
}

// LoadString stores a document held in a string.
func (s *Store) LoadString(name, xml string) (DocID, error) {
	return s.Load(name, strings.NewReader(xml))
}

// Drop removes a document.
func (s *Store) Drop(doc DocID) error {
	return s.DropCtx(context.Background(), doc)
}

// DropCtx is Drop with a caller context (see LoadCtx for mutation semantics).
func (s *Store) DropCtx(ctx context.Context, doc DocID) error {
	ctx, root := s.rootSpan(ctx, "store.drop")
	defer root.End()
	unlock, err := s.logOp(ctx, recDrop, func(w *wal.BodyWriter) { w.Int(doc) })
	if err != nil {
		return err
	}
	defer unlock()
	return s.shredder.DropDocument(doc)
}

// Documents lists stored documents.
func (s *Store) Documents() ([]DocInfo, error) {
	if err := s.closedErr(); err != nil {
		return nil, err
	}
	infos, err := shred.Documents(s.db)
	if err != nil {
		return nil, err
	}
	out := make([]DocInfo, len(infos))
	for i, d := range infos {
		out[i] = DocInfo{ID: d.Doc, Name: d.Name, Nodes: d.Nodes}
	}
	return out, nil
}

// Query evaluates an absolute XPath expression, returning matches in
// document order.
func (s *Store) Query(doc DocID, xpathExpr string) ([]Node, error) {
	return s.QueryCtx(context.Background(), doc, xpathExpr)
}

// QueryCtx is Query with a caller context. When the store's request tracer
// is enabled (see Tracer), the evaluation records a span tree — pipeline
// stages, per-statement planner and operator spans, buffer-pool and WAL
// activity — retrievable as Chrome trace-event JSON via WriteTrace.
func (s *Store) QueryCtx(ctx context.Context, doc DocID, xpathExpr string) ([]Node, error) {
	ctx, end, err := s.beginRead(ctx)
	if err != nil {
		return nil, err
	}
	defer end()
	refs, err := s.evaluator.QueryAtCtx(ctx, nil, doc, xpathExpr)
	if err != nil {
		return nil, err
	}
	out := make([]Node, len(refs))
	for i, r := range refs {
		out[i] = Node{
			ID:       r.ID,
			Kind:     kindOf(r.Kind),
			Tag:      r.Tag,
			Value:    r.Value,
			OrderKey: s.renderOrderKey(r.Order),
		}
	}
	return out, nil
}

// Tracer is the bounded request tracer: enable it, run requests, then dump
// the span buffer as Chrome trace-event JSON.
type Tracer = obs.Tracer

// SpanRecord is one completed span in the trace buffer.
type SpanRecord = obs.SpanRecord

// Tracer returns the store's request tracer. Recording is off by default;
// Tracer().SetEnabled(true) turns it on (one atomic load per request when
// off).
func (s *Store) Tracer() *Tracer { return s.db.Tracer() }

// WriteTrace writes the buffered request spans as Chrome trace-event JSON
// (loadable in Perfetto or chrome://tracing) and returns the span count.
func (s *Store) WriteTrace(w io.Writer) (int, error) {
	return s.db.Tracer().DumpChrome(w)
}

// rootSpan opens a trace root for a store-level operation when tracing is
// enabled and ctx carries no span; otherwise (ctx, nil).
func (s *Store) rootSpan(ctx context.Context, name string) (context.Context, *obs.ActiveSpan) {
	if obs.FromContext(ctx) != nil {
		return ctx, nil
	}
	return s.db.Tracer().StartRoot(ctx, name)
}

func kindOf(k xmltree.Kind) NodeKind {
	switch k {
	case xmltree.Attr:
		return AttributeNode
	case xmltree.Text:
		return TextNode
	default:
		return ElementNode
	}
}

func (s *Store) renderOrderKey(v sqltypes.Value) string {
	if s.opts.Kind == encoding.Dewey {
		if p, err := s.opts.DeweyPath(v); err == nil {
			return p.String()
		}
	}
	return v.String()
}

// QueryValues evaluates a query and returns the XPath string value of each
// match (text content for elements). The query and the content extraction
// share one pinned snapshot, so the values always belong to the same store
// version as the match set. The element matches' subtrees are read together:
// one statement per tree level under Global and Local, one under Dewey.
func (s *Store) QueryValues(doc DocID, xpathExpr string) ([]string, error) {
	return s.QueryValuesCtx(context.Background(), doc, xpathExpr)
}

// QueryValuesCtx is QueryValues with a caller context: the query and the
// content extraction both run governed, sharing the request's
// deadline and memory budget.
func (s *Store) QueryValuesCtx(ctx context.Context, doc DocID, xpathExpr string) ([]string, error) {
	ctx, end, err := s.beginRead(ctx)
	if err != nil {
		return nil, err
	}
	defer end()
	snap := s.db.Snapshot()
	refs, err := s.evaluator.QueryAtCtx(ctx, snap, doc, xpathExpr)
	if err != nil {
		return nil, err
	}
	sub, err := s.publisher.SubtreesCtx(ctx, snap, doc, refs)
	if err != nil {
		return nil, err
	}
	return sub.StringValues(ctx, refs)
}

// ExplainQuery evaluates a query and returns the SQL statements the store
// generated for it, one per path segment.
func (s *Store) ExplainQuery(doc DocID, xpathExpr string) ([]string, error) {
	return s.ExplainQueryCtx(context.Background(), doc, xpathExpr)
}

// ExplainQueryCtx is ExplainQuery with a caller context. The evaluation runs
// governed like QueryCtx, and the statements returned are those of this call
// whatever other queries run concurrently.
func (s *Store) ExplainQueryCtx(ctx context.Context, doc DocID, xpathExpr string) ([]string, error) {
	ctx, end, err := s.beginRead(ctx)
	if err != nil {
		return nil, err
	}
	defer end()
	return s.evaluator.Explain(ctx, doc, xpathExpr)
}

// Serialize reconstructs the subtree rooted at id as XML.
func (s *Store) Serialize(doc DocID, id NodeID) (string, error) {
	return s.SerializeCtx(context.Background(), doc, id)
}

// SerializeCtx is Serialize with a caller context: reconstruction observes
// the request deadline and memory budget and joins the request trace.
func (s *Store) SerializeCtx(ctx context.Context, doc DocID, id NodeID) (string, error) {
	ctx, end, err := s.beginRead(ctx)
	if err != nil {
		return "", err
	}
	defer end()
	n, err := s.publisher.SubtreeCtx(ctx, nil, doc, id)
	if err != nil {
		return "", err
	}
	return n.String(), nil
}

// SerializeDocument reconstructs the whole document.
func (s *Store) SerializeDocument(doc DocID) (string, error) {
	return s.SerializeDocumentCtx(context.Background(), doc)
}

// SerializeDocumentCtx is SerializeDocument with a caller context (see
// SerializeCtx).
func (s *Store) SerializeDocumentCtx(ctx context.Context, doc DocID) (string, error) {
	ctx, end, err := s.beginRead(ctx)
	if err != nil {
		return "", err
	}
	defer end()
	n, err := s.publisher.DocumentCtx(ctx, nil, doc)
	if err != nil {
		return "", err
	}
	return n.String(), nil
}

// Insert places an XML fragment relative to the target node.
func (s *Store) Insert(doc DocID, target NodeID, pos Position, fragment string) (UpdateReport, error) {
	return s.InsertCtx(context.Background(), doc, target, pos, fragment)
}

// InsertCtx is Insert with a caller context (see LoadCtx for mutation
// semantics).
func (s *Store) InsertCtx(ctx context.Context, doc DocID, target NodeID, pos Position, fragment string) (UpdateReport, error) {
	ctx, root := s.rootSpan(ctx, "store.insert")
	defer root.End()
	unlock, err := s.logOp(ctx, recInsert, func(w *wal.BodyWriter) {
		w.Int(doc)
		w.Int(target)
		w.String(pos.String())
		w.String(fragment)
	})
	if err != nil {
		return UpdateReport{}, err
	}
	defer unlock()
	return s.manager.InsertXML(doc, target, pos, fragment)
}

// Delete removes the subtree rooted at id.
func (s *Store) Delete(doc DocID, id NodeID) (UpdateReport, error) {
	return s.DeleteCtx(context.Background(), doc, id)
}

// DeleteCtx is Delete with a caller context (see LoadCtx for mutation
// semantics).
func (s *Store) DeleteCtx(ctx context.Context, doc DocID, id NodeID) (UpdateReport, error) {
	ctx, root := s.rootSpan(ctx, "store.delete")
	defer root.End()
	unlock, err := s.logOp(ctx, recDelete, func(w *wal.BodyWriter) {
		w.Int(doc)
		w.Int(id)
	})
	if err != nil {
		return UpdateReport{}, err
	}
	defer unlock()
	return s.manager.Delete(doc, id)
}

// Metrics is a point-in-time snapshot of every engine metric: counters,
// gauges and latency histograms (with p50/p95/p99). It marshals to JSON.
type Metrics = obs.Snapshot

// HistogramStats summarizes one latency histogram inside a Metrics snapshot.
type HistogramStats = obs.HistogramSnapshot

// SlowQuery is one slow-query log entry. Rows is -1 for non-SELECT
// statements.
type SlowQuery = sqldb.SlowQuery

// Metrics returns a snapshot of the store's engine metrics, the one
// statistics call: statement counts and latency histograms (sqldb.*), XPath
// query count and latency (xpath.*), plan-cache counters (sqldb.plancache.*),
// logical work and page/node read counters (storage.*) and, on durable
// stores, write-ahead log (wal.*) and buffer-pool (bufpool.*) activity. Subtract two snapshots to measure an operation. README
// "Observability" lists every name.
func (s *Store) Metrics() Metrics { return s.db.Metrics() }

// ExplainSQL returns the physical plan of a SQL statement as text.
func (s *Store) ExplainSQL(query string) (string, error) {
	if err := s.closedErr(); err != nil {
		return "", err
	}
	return s.db.Explain(query)
}

// ExplainAnalyzeSQL executes a SELECT with per-operator instrumentation and
// returns the plan tree annotated with actual row counts, loop counts and
// wall time per operator. Equivalent to running `EXPLAIN ANALYZE <query>`
// through SQL, and governed like it: the run is admitted, timed out and
// memory-budgeted as any other read.
func (s *Store) ExplainAnalyzeSQL(query string, args ...any) (string, error) {
	params, err := toValues(args)
	if err != nil {
		return "", err
	}
	ctx, end, err := s.beginRead(context.Background())
	if err != nil {
		return "", err
	}
	defer end()
	return s.db.ExplainAnalyzeCtx(ctx, query, params...)
}

// SlowQueries returns the engine's slow-query log, oldest first.
func (s *Store) SlowQueries() []SlowQuery { return s.db.SlowQueries() }

// SetSlowQueryThreshold sets the slow-query log threshold; 0 disables the
// log.
func (s *Store) SetSlowQueryThreshold(d time.Duration) { s.db.SetSlowQueryThreshold(d) }

// StorageStats reports the node table's size.
type StorageStats struct {
	Rows      int
	HeapPages int
	HeapBytes int
}

// Storage returns size statistics for the store's node table, as of the last
// published snapshot (safe against concurrent writers).
func (s *Store) Storage() StorageStats {
	hs, ok := s.db.TableStats(s.opts.NodesTable())
	if !ok {
		return StorageStats{}
	}
	return StorageStats{Rows: hs.Rows, HeapPages: hs.Pages, HeapBytes: hs.LiveBytes}
}

// Rows is a generic SQL result for the escape-hatch SQL method.
type Rows struct {
	Columns []string
	Values  [][]string
}

// SQL runs a raw SELECT against the underlying engine — the escape hatch
// for inspecting the shredded relations. Arguments bind to `?` placeholders
// and may be int, int64, float64, string, []byte, bool or nil.
func (s *Store) SQL(query string, args ...any) (*Rows, error) {
	return s.SQLCtx(context.Background(), query, args...)
}

// SQLCtx is SQL with a caller context: the statement runs governed
// (cancellation, deadline, memory budget, admission control).
func (s *Store) SQLCtx(ctx context.Context, query string, args ...any) (*Rows, error) {
	params, err := toValues(args)
	if err != nil {
		return nil, err
	}
	ctx, end, err := s.beginRead(ctx)
	if err != nil {
		return nil, err
	}
	defer end()
	res, err := s.db.QueryCtx(ctx, query, params...)
	if err != nil {
		return nil, err
	}
	out := &Rows{Columns: res.Columns}
	for _, r := range res.Rows {
		row := make([]string, len(r))
		for i, v := range r {
			row[i] = v.String()
		}
		out.Values = append(out.Values, row)
	}
	return out, nil
}

// Exec runs a raw non-SELECT SQL statement against the underlying engine —
// the mutating counterpart of SQL. On a durable store the statement and its
// bound parameters are write-ahead logged, so raw DML survives crash
// recovery like every API-level mutation. It returns the affected row count.
func (s *Store) Exec(query string, args ...any) (int, error) {
	return s.ExecCtx(context.Background(), query, args...)
}

// ExecCtx is Exec with a caller context. When the store's request tracer is
// enabled the statement records a span tree covering the WAL append+fsync
// and the engine-side execution.
func (s *Store) ExecCtx(ctx context.Context, query string, args ...any) (int, error) {
	params, err := toValues(args)
	if err != nil {
		return 0, err
	}
	ctx, root := s.rootSpan(ctx, "store.exec")
	defer root.End()
	unlock, err := s.logOp(ctx, recExec, func(w *wal.BodyWriter) {
		w.String(query)
		w.Bytes(sqltypes.EncodeRow(nil, params))
	})
	if err != nil {
		return 0, err
	}
	defer unlock()
	return s.db.ExecCtx(ctx, query, params...)
}

// toValues binds Go arguments to SQL parameter values.
func toValues(args []any) (sqltypes.Row, error) {
	params := make(sqltypes.Row, len(args))
	for i, a := range args {
		v, err := toValue(a)
		if err != nil {
			return nil, fmt.Errorf("argument %d: %w", i+1, err)
		}
		params[i] = v
	}
	return params, nil
}

func toValue(a any) (sqltypes.Value, error) {
	switch v := a.(type) {
	case nil:
		return sqltypes.NullValue(), nil
	case int:
		return sqltypes.NewInt(int64(v)), nil
	case int64:
		return sqltypes.NewInt(v), nil
	case float64:
		return sqltypes.NewReal(v), nil
	case string:
		return sqltypes.NewText(v), nil
	case []byte:
		return sqltypes.NewBlob(v), nil
	case bool:
		return sqltypes.NewBool(v), nil
	default:
		return sqltypes.Value{}, fmt.Errorf("unsupported type %T", a)
	}
}

// SetValue rewrites a text or attribute node's value in place (no order
// keys change, so no renumbering under any encoding).
func (s *Store) SetValue(doc DocID, id NodeID, value string) error {
	return s.SetValueCtx(context.Background(), doc, id, value)
}

// SetValueCtx is SetValue with a caller context (see LoadCtx for mutation
// semantics).
func (s *Store) SetValueCtx(ctx context.Context, doc DocID, id NodeID, value string) error {
	ctx, root := s.rootSpan(ctx, "store.set_value")
	defer root.End()
	unlock, err := s.logOp(ctx, recSetValue, func(w *wal.BodyWriter) {
		w.Int(doc)
		w.Int(id)
		w.String(value)
	})
	if err != nil {
		return err
	}
	defer unlock()
	return s.manager.SetValue(doc, id, value)
}

// Rename changes an element tag or attribute name in place.
func (s *Store) Rename(doc DocID, id NodeID, name string) error {
	return s.RenameCtx(context.Background(), doc, id, name)
}

// RenameCtx is Rename with a caller context (see LoadCtx for mutation
// semantics).
func (s *Store) RenameCtx(ctx context.Context, doc DocID, id NodeID, name string) error {
	ctx, root := s.rootSpan(ctx, "store.rename")
	defer root.End()
	unlock, err := s.logOp(ctx, recRename, func(w *wal.BodyWriter) {
		w.Int(doc)
		w.Int(id)
		w.String(name)
	})
	if err != nil {
		return err
	}
	defer unlock()
	return s.manager.Rename(doc, id, name)
}

// Move relocates the subtree rooted at id to a new position relative to
// target, preserving its content. It composes Serialize + Delete + Insert
// atomically with respect to other statements; the report aggregates the
// delete and insert costs. The returned NewID identifies the relocated
// subtree root (node ids are not preserved across a move).
func (s *Store) Move(doc DocID, id, target NodeID, pos Position) (UpdateReport, error) {
	return s.MoveCtx(context.Background(), doc, id, target, pos)
}

// MoveCtx is Move with a caller context (see LoadCtx for mutation semantics).
func (s *Store) MoveCtx(ctx context.Context, doc DocID, id, target NodeID, pos Position) (UpdateReport, error) {
	ctx, root := s.rootSpan(ctx, "store.move")
	defer root.End()
	unlock, err := s.logOp(ctx, recMove, func(w *wal.BodyWriter) {
		w.Int(doc)
		w.Int(id)
		w.Int(target)
		w.String(pos.String())
	})
	if err != nil {
		return UpdateReport{}, err
	}
	defer unlock()
	return s.moveTree(doc, id, target, pos)
}

// moveTree is Move's engine-side body, shared with WAL replay.
func (s *Store) moveTree(doc DocID, id, target NodeID, pos Position) (UpdateReport, error) {
	if id == target {
		return UpdateReport{}, fmt.Errorf("cannot move a node relative to itself")
	}
	sub, err := s.publisher.Subtree(doc, id)
	if err != nil {
		return UpdateReport{}, err
	}
	// Reject, before the delete, every move the reinsert would refuse: one
	// into the subtree being moved (the target would be deleted out from
	// under the insert) — walk up from the target and fail if the moved node
	// appears on the ancestor chain — and one beside the document root.
	cur := target
	for cur != 0 {
		if cur == id {
			return UpdateReport{}, fmt.Errorf("cannot move node %d into its own subtree", id)
		}
		parent, err := s.manager.Node(doc, cur)
		if err != nil {
			return UpdateReport{}, err
		}
		if parent == 0 && cur == target && (pos == Before || pos == After) {
			return UpdateReport{}, fmt.Errorf("cannot move a node beside the document root")
		}
		cur = parent
	}
	delRep, err := s.manager.Delete(doc, id)
	if err != nil {
		return UpdateReport{}, err
	}
	rep, err := s.manager.InsertTree(doc, target, pos, sub)
	if err != nil {
		return UpdateReport{}, fmt.Errorf("move lost the subtree after delete (reinsert failed): %w", err)
	}
	rep.RowsRenumbered += delRep.RowsRenumbered
	rep.RowsDeleted = delRep.RowsDeleted
	return rep, nil
}

// Check verifies the document's structural invariants — parent links, node
// shapes, registry counts, and the encoding's order-key contract (unique
// global orders, per-parent sibling orders, or parent-prefix Dewey paths).
// It returns the list of violations; an empty list means the stored form is
// consistent.
func (s *Store) Check(doc DocID) ([]string, error) {
	if err := s.closedErr(); err != nil {
		return nil, err
	}
	c, err := check.New(s.db, s.opts)
	if err != nil {
		return nil, err
	}
	return c.Document(doc)
}

// Integrity-status gauge values published as integrity.last_status
// (integrity.last_run_unix records when the check ran).
const (
	integrityNever      = 0 // no check has run since open
	integrityOK         = 1
	integrityViolations = 2
	integrityError      = 3 // the check itself failed
)

// CheckIntegrity is the deep, store-wide integrity check. It validates the
// physical storage invariants of every table — heap page structure, B+tree
// key order, fill and balance, leaf chaining, and index/heap agreement —
// then runs Check's logical document invariants for every stored document,
// and sweeps for orphan node rows missing from the document registry. It
// returns the list of violations; an empty list means the store is fully
// consistent. Expect a full read of every table and index: this is a
// diagnostic for tests, the shell's \check command, and post-crash triage,
// not a hot path.
func (s *Store) CheckIntegrity() ([]string, error) {
	if err := s.closedErr(); err != nil {
		return nil, err
	}
	reg := s.db.Registry()
	problems, err := check.Verify(s.db, s.opts)
	reg.Gauge("integrity.last_run_unix").Set(time.Now().Unix())
	status := reg.Gauge("integrity.last_status")
	switch {
	case err != nil:
		status.Set(integrityError)
		reg.Log().Error("integrity check failed", olog.Err(err))
	case len(problems) > 0:
		status.Set(integrityViolations)
		reg.Log().Warn("integrity check found violations",
			olog.Int("violations", int64(len(problems))),
			olog.Str("first", problems[0]))
	default:
		status.Set(integrityOK)
	}
	return problems, err
}
