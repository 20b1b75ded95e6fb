// Package shred loads XML documents into the relational encodings: it takes
// a document's xmltree events in document order — from the token stream or
// from a tree — assigns surrogate ids and order keys (global position,
// sibling ordinal, or Dewey path — gap-adjusted), and inserts one row per
// node.
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

// Load shreds the XML document read from r and stores it under the given
// name, returning the new document id. The rows are built from the token
// stream (xmltree.Scan into the walker), with no tree in between, and stored
// with one bulk insert only once the whole document has parsed, so a
// malformed document stores nothing.
func (s *Shredder) Load(name string, r io.Reader) (int64, error) {
	docID, err := s.nextDocID()
	if err != nil {
		return 0, err
	}
	w := newWalker(s.opts, docID, s.docStart(), 0)
	if err := xmltree.Scan(r, xmltree.ParseOptions{}, w); err != nil {
		return 0, err
	}
	return docID, s.store(name, docID, w.rows())
}

// LoadTree stores an already-parsed document: the same rows Load builds
// from its text, walked from the tree.
func (s *Shredder) LoadTree(name string, root *xmltree.Node) (int64, error) {
	docID, err := s.nextDocID()
	if err != nil {
		return 0, err
	}
	rows, err := Rows(s.opts, docID, root, s.docStart())
	if err != nil {
		return 0, err
	}
	return docID, s.store(name, docID, rows)
}

// docStart places a document: its root is id 1 and every key one gap.
func (s *Shredder) docStart() Start {
	gap := int64(s.opts.EffectiveGap())
	return Start{ID: 1, Key: gap, Step: gap}
}

// store inserts a document's rows through the engine's bulk fast path (one
// batch heap append plus one ordered pass per index), instead of one
// parse/plan/execute round trip per node, and registers the document.
func (s *Shredder) store(name string, docID int64, rows []sqltypes.Row) error {
	if _, err := s.db.BulkInsert(s.opts.NodesTable(), rows); err != nil {
		return err
	}
	_, err := s.db.Exec(`INSERT INTO docs (doc, name, root, nodes) VALUES (?, ?, ?, ?)`,
		sqldb.I(docID), sqldb.S(name), sqldb.I(1), sqldb.I(int64(len(rows))))
	return err
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
// document order: the tree's events into the walker Load feeds from XML
// text. Attributes take a node's first sibling ordinals and its element and
// text children continue the numbering; below the root, the sibling ordinal
// times the gap is a node's Local key and the last component of its Dewey
// path. A Dewey component the key codec cannot hold fails the build before
// anything is written. The walker is the only code that turns XML into node
// rows: Load and Insert differ only in their Start.
func Rows(opts encoding.Options, doc int64, root *xmltree.Node, at Start) ([]sqltypes.Row, error) {
	w := newWalker(opts, doc, at, root.Size())
	if err := root.Emit(w); err != nil {
		return nil, err
	}
	return w.rows(), nil
}

// walker is the xmltree.Handler that assigns ids and order keys to the
// events of a document or subtree, accumulating one row of values per node.
// It keeps only the open elements, never the tree.
type walker struct {
	opts   encoding.Options
	doc    int64
	gap    int64
	at     Start
	nextID int64
	gpos   int64 // the next node's Global position
	open   []openElem
	// vals holds the rows' values in row order, nodeCols per row, one chunk
	// at a time; full chunks are kept in full, never copied.
	full [][]sqltypes.Value
	vals []sqltypes.Value
	// path is the Dewey path of the node being placed, shared across the
	// walk (pushed when a node is placed, popped when it closes) so path
	// construction costs no allocation per node. keyBuf is the shared
	// backing for the encoded order-key blobs.
	path   dewey.Path
	keyBuf []byte
}

// openElem is an element whose End has not arrived: its id and the sibling
// ordinal its next attribute or child takes.
type openElem struct{ id, next int64 }

// newWalker places the first node at at; size, when known, is the row count
// (0 takes the values chunk by chunk).
func newWalker(opts encoding.Options, doc int64, at Start, size int) *walker {
	return &walker{
		opts: opts, doc: doc, gap: int64(opts.EffectiveGap()), at: at,
		nextID: at.ID, gpos: at.Key,
		path: append(dewey.Path(nil), at.Prefix...),
		vals: make([]sqltypes.Value, 0, size*nodeCols),
	}
}

// rows returns the rows placed so far, in document order.
func (w *walker) rows() []sqltypes.Row {
	n := len(w.vals)
	for _, c := range w.full {
		n += len(c)
	}
	rows := make([]sqltypes.Row, 0, n/nodeCols)
	for _, c := range append(w.full, w.vals) {
		for i := 0; i < len(c); i += nodeCols {
			rows = append(rows, sqltypes.Row(c[i:i+nodeCols:i+nodeCols]))
		}
	}
	return rows
}

// Start places an element and opens it.
func (w *walker) Start(tag string) error {
	id, err := w.place(xmltree.Element, tag, "")
	if err != nil {
		return err
	}
	w.open = append(w.open, openElem{id: id, next: 1})
	return nil
}

// Attr places an attribute of the open element.
func (w *walker) Attr(name, value string) error { return w.leaf(xmltree.Attr, name, value) }

// Text places a text node.
func (w *walker) Text(value string) error { return w.leaf(xmltree.Text, "", value) }

// End closes the open element.
func (w *walker) End(string) error {
	w.open = w.open[:len(w.open)-1]
	w.closePath()
	return nil
}

func (w *walker) leaf(kind xmltree.Kind, tag, value string) error {
	if _, err := w.place(kind, tag, value); err != nil {
		return err
	}
	w.closePath()
	return nil
}

// closePath pops the closed node's Dewey component.
func (w *walker) closePath() {
	if w.opts.Kind == encoding.Dewey {
		w.path = w.path[:len(w.path)-1]
	}
}

// place buffers the next node's row and returns its id. Its parent is the
// open element, whose next sibling ordinal it takes, or Start's parent.
func (w *walker) place(kind xmltree.Kind, tag, value string) (int64, error) {
	id := w.nextID
	w.nextID++
	parent, key := w.at.Parent, w.at.Key
	if n := len(w.open); n > 0 {
		top := &w.open[n-1]
		parent, key = top.id, top.next*w.gap
		top.next++
	}
	var orderKey sqltypes.Value
	switch w.opts.Kind {
	case encoding.Global:
		orderKey = sqldb.I(w.gpos)
		w.gpos += w.at.Step
	case encoding.Local:
		orderKey = sqldb.I(key)
	case encoding.Dewey:
		comp, err := w.opts.DeweyComponent(uint64(key))
		if err != nil {
			return 0, err
		}
		w.path = append(w.path, comp)
		orderKey, w.keyBuf = w.opts.DeweyKey(w.keyBuf, w.path)
	default:
		panic(fmt.Sprintf("shred: unknown encoding kind %d", int(w.opts.Kind)))
	}
	w.insert(kind, tag, value, id, parent, orderKey)
	return id, nil
}

// insert buffers one node row in the node table's column order
// (doc, id, parent, kind, tag, value, <order key>).
func (w *walker) insert(kind xmltree.Kind, tag, value string, id, parentID int64, orderKey sqltypes.Value) {
	parent := sqldb.Null()
	if parentID != 0 {
		parent = sqldb.I(parentID)
	}
	tagV := sqldb.Null()
	if kind != xmltree.Text {
		tagV = sqldb.S(tag)
	}
	valueV := sqldb.Null()
	if kind != xmltree.Element {
		valueV = sqldb.S(value)
	}
	if len(w.vals)+nodeCols > cap(w.vals) {
		if len(w.vals) > 0 {
			w.full = append(w.full, w.vals)
		}
		w.vals = make([]sqltypes.Value, 0, nodeCols*chunkRows)
	}
	w.vals = append(w.vals,
		sqldb.I(w.doc), sqldb.I(id), parent,
		sqldb.S(kind.String()), tagV, valueV, orderKey,
	)
}

// chunkRows is the rows one chunk of values holds in a walker of unknown
// size: the last chunk's unused part is all it wastes.
const chunkRows = 1024

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
