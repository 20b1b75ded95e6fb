// Package shred loads XML documents into the relational encodings: it walks
// a document tree in document order, assigns surrogate ids and order keys
// (global position, sibling ordinal, or Dewey path — gap-adjusted), and
// inserts one row per node.
package shred

import (
	"fmt"
	"io"

	"ordxml/internal/core/dewey"
	"ordxml/internal/core/encoding"
	"ordxml/internal/sqldb"
	"ordxml/internal/sqldb/sqltypes"
	"ordxml/internal/sqlgen"
	"ordxml/internal/xmltree"
)

// Shredder loads documents into one encoding's tables.
type Shredder struct {
	db   *sqldb.DB
	opts encoding.Options

	deleteDoc string // DELETE of one document's rows from the encoding's node table
}

// New prepares a shredder. The encoding's schema must already be installed.
func New(db *sqldb.DB, opts encoding.Options) (*Shredder, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if !encoding.Installed(db, opts) {
		return nil, fmt.Errorf("encoding %s is not installed", opts.Kind)
	}
	return &Shredder{db: db, opts: opts,
		deleteDoc: sqlgen.SQL(`DELETE FROM %s WHERE doc = ?`, opts.NodesTable())}, nil
}

// Options returns the shredder's encoding options.
func (s *Shredder) Options() encoding.Options { return s.opts }

// Load parses XML from r and stores it under the given name, returning the
// new document id.
func (s *Shredder) Load(name string, r io.Reader) (int64, error) {
	root, err := xmltree.Parse(r)
	if err != nil {
		return 0, err
	}
	return s.LoadTree(name, root)
}

// LoadTree stores an already-parsed document. The whole tree is shredded
// into rows in memory first and inserted through the engine's bulk fast
// path (one batch heap append plus one sorted pass per index), instead of
// one parse/plan/execute round trip per node.
func (s *Shredder) LoadTree(name string, root *xmltree.Node) (int64, error) {
	docID, err := s.nextDocID()
	if err != nil {
		return 0, err
	}
	gap := int64(s.opts.EffectiveGap())
	rows, err := Rows(s.opts, docID, root, Start{ID: 1, Key: gap, Step: gap})
	if err != nil {
		return 0, err
	}
	if _, err := s.db.BulkInsert(s.opts.NodesTable(), rows); err != nil {
		return 0, err
	}
	if _, err := s.db.Exec(`INSERT INTO docs (doc, name, root, nodes) VALUES (?, ?, ?, ?)`,
		sqldb.I(docID), sqldb.S(name), sqldb.I(1), sqldb.I(int64(len(rows)))); err != nil {
		return 0, err
	}
	return docID, nil
}

// DropDocument removes a document and all its rows.
func (s *Shredder) DropDocument(docID int64) error {
	n, err := s.db.Exec(s.deleteDoc, sqldb.I(docID))
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("document %d has no rows in %s", docID, s.opts.NodesTable())
	}
	if _, err := s.db.Exec(`DELETE FROM docs WHERE doc = ?`, sqldb.I(docID)); err != nil {
		return err
	}
	return nil
}

// nextDocID returns one past the highest stored document id: one descent
// of the docs primary key. The id derives from the stored documents alone,
// so WAL replay hands out the same id the live load did (the id of a
// dropped highest document is reused), and every shredder sharing the docs
// table agrees on it.
func (s *Shredder) nextDocID() (int64, error) {
	res, err := s.db.Query(`SELECT MAX(doc) FROM docs`)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) == 0 || res.Rows[0][0].IsNull() {
		return 1, nil
	}
	return res.Rows[0][0].Int() + 1, nil
}

// nodeCols is the node-table row width: doc, id, parent, kind, tag, value
// and one order-key column.
const nodeCols = 7

// Start places a subtree's rows: its root's id (the other nodes take the
// next ids in document order), its root's parent (0 for a document root)
// and its root's order key. A document starts at id 1 with every key one
// gap.
type Start struct {
	ID, Parent int64
	// Key is the root's order key: its Global position, its Local sibling
	// ordinal, or the last component of its Dewey path.
	Key int64
	// Step is the distance between consecutive Global positions in the
	// subtree.
	Step int64
	// Prefix is the Dewey path of the root's parent (nil for a document
	// root).
	Prefix dewey.Path
}

// Rows builds the node rows of the subtree at root for document doc, in
// document order. Attributes take a node's first sibling ordinals and its
// element and text children continue the numbering; below the root, the
// sibling ordinal times the gap is a node's Local key and the last component
// of its Dewey path. A Dewey component the key codec cannot hold fails the
// build before anything is written. Rows is the only code that turns XML
// into node rows: Load and Insert differ only in their Start.
func Rows(opts encoding.Options, doc int64, root *xmltree.Node, at Start) ([]sqltypes.Row, error) {
	size := root.Size()
	w := &walker{
		opts: opts, doc: doc, gap: int64(opts.EffectiveGap()),
		nextID: at.ID, gpos: at.Key, step: at.Step,
		stack: append(dewey.Path(nil), at.Prefix...),
		rows:  make([]sqltypes.Row, 0, size),
		vals:  make([]sqltypes.Value, 0, size*nodeCols),
	}
	if err := w.walk(root, at.Parent, at.Key); err != nil {
		return nil, err
	}
	return w.rows, nil
}

// walker assigns ids and order keys during the pre-order traversal,
// accumulating one row per node. Row values are carved out of one shared
// backing slice (vals), sized for the whole subtree up front.
type walker struct {
	opts   encoding.Options
	doc    int64
	gap    int64
	nextID int64
	gpos   int64 // the next node's Global position
	step   int64
	rows   []sqltypes.Row
	vals   []sqltypes.Value
	// stack is the Dewey path of the node currently being visited, shared
	// across the walk (push before insert, pop after the subtree) so path
	// construction costs no allocation per node. keyBuf is the shared
	// backing for the encoded order-key blobs.
	stack  dewey.Path
	keyBuf []byte
}

// walk buffers n's row and its subtree's; key is n's Local ordinal or last
// Dewey component (Global keys come from gpos).
func (w *walker) walk(n *xmltree.Node, parentID, key int64) error {
	id := w.nextID
	w.nextID++
	var orderKey sqltypes.Value
	switch w.opts.Kind {
	case encoding.Global:
		orderKey = sqldb.I(w.gpos)
		w.gpos += w.step
	case encoding.Local:
		orderKey = sqldb.I(key)
	case encoding.Dewey:
		comp, err := w.opts.DeweyComponent(uint64(key))
		if err != nil {
			return err
		}
		w.stack = append(w.stack, comp)
		orderKey, w.keyBuf = w.opts.DeweyKey(w.keyBuf, w.stack)
	default:
		panic(fmt.Sprintf("shred: unknown encoding kind %d", int(w.opts.Kind)))
	}
	w.insert(n, id, parentID, orderKey)
	ord := int64(1)
	for _, a := range n.Attrs {
		if err := w.walk(a, id, ord*w.gap); err != nil {
			return err
		}
		ord++
	}
	for _, c := range n.Children {
		if err := w.walk(c, id, ord*w.gap); err != nil {
			return err
		}
		ord++
	}
	// Pop this node's path component. Error returns above skip the pop; an
	// error aborts the whole build, so the stack's state no longer matters.
	if w.opts.Kind == encoding.Dewey {
		w.stack = w.stack[:len(w.stack)-1]
	}
	return nil
}

// insert buffers one node row in the node table's column order
// (doc, id, parent, kind, tag, value, <order key>).
func (w *walker) insert(n *xmltree.Node, id, parentID int64, orderKey sqltypes.Value) {
	parent := sqldb.Null()
	if parentID != 0 {
		parent = sqldb.I(parentID)
	}
	tag := sqldb.Null()
	if n.Kind != xmltree.Text {
		tag = sqldb.S(n.Tag)
	}
	value := sqldb.Null()
	if n.Kind != xmltree.Element {
		value = sqldb.S(n.Value)
	}
	start := len(w.vals)
	w.vals = append(w.vals,
		sqldb.I(w.doc), sqldb.I(id), parent,
		sqldb.S(n.Kind.String()), tag, value, orderKey,
	)
	w.rows = append(w.rows, sqltypes.Row(w.vals[start:len(w.vals):len(w.vals)]))
}

// DocInfo describes one stored document.
type DocInfo struct {
	Doc   int64
	Name  string
	Root  int64
	Nodes int64
}

// Documents lists the stored documents (shared across encodings).
func Documents(db *sqldb.DB) ([]DocInfo, error) {
	res, err := db.Query(`SELECT doc, name, root, nodes FROM docs ORDER BY doc`)
	if err != nil {
		return nil, err
	}
	out := make([]DocInfo, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = DocInfo{Doc: r[0].Int(), Name: r[1].Text(), Root: r[2].Int(), Nodes: r[3].Int()}
	}
	return out, nil
}
