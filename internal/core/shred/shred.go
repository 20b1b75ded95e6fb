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
	size := root.Size()
	w := &walker{
		s: s, doc: docID,
		rows: make([]sqltypes.Row, 0, size),
		vals: make([]sqltypes.Value, 0, size*nodeCols),
	}
	if err := w.walk(root, 0, 1); err != nil {
		return 0, err
	}
	if _, err := s.db.BulkInsert(s.opts.NodesTable(), w.rows); err != nil {
		return 0, err
	}
	if _, err := s.db.Exec(`INSERT INTO docs (doc, name, root, nodes) VALUES (?, ?, ?, ?)`,
		sqldb.I(docID), sqldb.S(name), sqldb.I(1), sqldb.I(w.nextID-1)); err != nil {
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

// walker assigns ids and order keys during the pre-order traversal,
// accumulating one row per node for the bulk insert. Root id is always 1.
// Row values are carved out of one shared backing slice (vals), sized for the
// whole document up front.
type walker struct {
	s      *Shredder
	doc    int64
	nextID int64
	gpos   int64 // running global position (document order)
	rows   []sqltypes.Row
	vals   []sqltypes.Value
	// stack is the Dewey path of the node currently being visited, shared
	// across the walk (push before insert, pop after the subtree) so path
	// construction costs no allocation per node. pathBuf is the shared
	// backing for the encoded order-key blobs.
	stack   dewey.Path
	pathBuf []byte
}

func (w *walker) walk(n *xmltree.Node, parentID int64, ordinal uint32) error {
	if w.nextID == 0 {
		w.nextID = 1
	}
	id := w.nextID
	w.nextID++
	gap := int64(w.s.opts.EffectiveGap())
	w.gpos += gap

	var path dewey.Path
	isDewey := w.s.opts.Kind == encoding.Dewey
	if isDewey {
		comp, err := dewey.Component(uint64(ordinal)*uint64(gap), w.s.opts.DeweyAsText)
		if err != nil {
			return err
		}
		w.stack = append(w.stack, comp)
		path = w.stack
	}
	if err := w.insert(n, id, parentID, ordinal, path); err != nil {
		return err
	}
	// Attributes take the first sibling ordinals, then element/text children
	// continue the numbering — one consistent sibling order for every
	// encoding.
	ord := uint32(1)
	for _, a := range n.Attrs {
		if err := w.walk(a, id, ord); err != nil {
			return err
		}
		ord++
	}
	for _, c := range n.Children {
		if err := w.walk(c, id, ord); err != nil {
			return err
		}
		ord++
	}
	// Pop this node's path component. Error returns above skip the pop; an
	// error aborts the whole load, so the stack's state no longer matters.
	if isDewey {
		w.stack = w.stack[:len(w.stack)-1]
	}
	return nil
}

// insert buffers one node row in the node table's column order
// (doc, id, parent, kind, tag, value, <order key>).
func (w *walker) insert(n *xmltree.Node, id, parentID int64, ordinal uint32, path dewey.Path) error {
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
	var orderKey sqltypes.Value
	switch w.s.opts.Kind {
	case encoding.Global:
		orderKey = sqldb.I(w.gpos)
	case encoding.Local:
		orderKey = sqldb.I(int64(ordinal) * int64(w.s.opts.EffectiveGap()))
	case encoding.Dewey:
		if w.s.opts.DeweyAsText {
			orderKey = sqldb.S(path.PaddedString())
		} else {
			off := len(w.pathBuf)
			w.pathBuf = path.AppendBytes(w.pathBuf)
			orderKey = sqldb.B(w.pathBuf[off:])
		}
	default:
		panic(fmt.Sprintf("shred: unknown encoding kind %d", int(w.s.opts.Kind)))
	}
	start := len(w.vals)
	w.vals = append(w.vals,
		sqldb.I(w.doc), sqldb.I(id), parent,
		sqldb.S(n.Kind.String()), tag, value, orderKey,
	)
	w.rows = append(w.rows, sqltypes.Row(w.vals[start:len(w.vals):len(w.vals)]))
	return nil
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
