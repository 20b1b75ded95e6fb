// Package update implements ordered XML updates over the relational
// encodings: subtree insertion at any position and subtree deletion. The
// renumbering behaviour is the paper's central trade-off:
//
//   - GLOBAL: inserting k nodes shifts the global order of every node after
//     the insertion point — potentially the rest of the document.
//   - LOCAL: only following siblings of the insertion point shift.
//   - DEWEY: following siblings shift and their entire subtrees must be
//     re-pathed (a sibling ordinal is a prefix component of its descendants).
//
// Gap-based (sparse) order values amortize all three: an insert first tries
// to claim an unused value between its neighbours and only renumbers when
// the local gap is exhausted. Stats report rows inserted and rows renumbered
// so experiments can separate the two costs.
package update

import (
	"fmt"

	"ordxml/internal/core/encoding"
	"ordxml/internal/core/shred"
	"ordxml/internal/sqldb"
	"ordxml/internal/sqldb/sqltypes"
	"ordxml/internal/sqlgen"
	"ordxml/internal/xmltree"
)

// Mode places an inserted subtree relative to the target node.
type Mode int

// Insertion modes.
const (
	// FirstChild inserts as the target's first child (after its attributes).
	FirstChild Mode = iota
	// LastChild appends as the target's last child.
	LastChild
	// Before inserts as the sibling immediately preceding the target.
	Before
	// After inserts as the sibling immediately following the target.
	After
)

// String returns the mode name.
func (m Mode) String() string {
	return [...]string{"first-child", "last-child", "before", "after"}[m]
}

// ParseMode reads a mode name as spelled by String. The WAL records insert
// positions by name, so the two must stay inverse.
func ParseMode(s string) (Mode, error) {
	for _, m := range []Mode{FirstChild, LastChild, Before, After} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("update: unknown insert mode %q", s)
}

// Stats reports the work an update performed.
type Stats struct {
	// RowsInserted is the size of the inserted subtree (0 for deletes).
	RowsInserted int64
	// RowsRenumbered counts existing rows whose order key was rewritten.
	RowsRenumbered int64
	// RowsDeleted counts removed rows (0 for inserts).
	RowsDeleted int64
	// NewID is the surrogate id of the inserted subtree root.
	NewID int64
}

// Manager performs updates for one encoding.
type Manager struct {
	db   *sqldb.DB
	opts encoding.Options
	tbl  string
	ord  string

	byID  string // one node's identity fields by (doc, id)
	maxID string // highest surrogate id in a document
}

// bumpDocSize adjusts a document's registered node count.
const bumpDocSize = `UPDATE docs SET nodes = nodes + ? WHERE doc = ?`

// node mirrors one row's identity fields.
type node struct {
	id     int64
	parent int64
	kind   xmltree.Kind
	order  sqltypes.Value
}

// New prepares a manager. The encoding must be installed.
func New(db *sqldb.DB, opts encoding.Options) (*Manager, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if !encoding.Installed(db, opts) {
		return nil, fmt.Errorf("encoding %s is not installed", opts.Kind)
	}
	m := &Manager{db: db, opts: opts, tbl: opts.NodesTable(), ord: opts.OrderColumn()}
	m.byID = sqlgen.SQL(`SELECT id, parent, kind, %s FROM %s WHERE doc = ? AND id = ?`, m.ord, m.tbl)
	m.maxID = sqlgen.SQL(`SELECT MAX(id) FROM %s WHERE doc = ?`, m.tbl)
	return m, nil
}

// Options returns the manager's encoding options.
func (m *Manager) Options() encoding.Options { return m.opts }

func (m *Manager) fetch(doc, id int64) (node, error) {
	res, err := m.db.Query(m.byID, sqldb.I(doc), sqldb.I(id))
	if err != nil {
		return node{}, err
	}
	if len(res.Rows) == 0 {
		return node{}, fmt.Errorf("document %d has no node %d", doc, id)
	}
	return decodeNode(res.Rows[0])
}

func decodeNode(r sqltypes.Row) (node, error) {
	kind, err := xmltree.ParseKind(r[2].Text())
	if err != nil {
		return node{}, err
	}
	n := node{id: r[0].Int(), kind: kind, order: r[3]}
	if !r[1].IsNull() {
		n.parent = r[1].Int()
	}
	return n, nil
}

// InsertXML parses a fragment and inserts it.
func (m *Manager) InsertXML(doc, target int64, mode Mode, fragment string) (Stats, error) {
	frag, err := xmltree.ParseString(fragment)
	if err != nil {
		return Stats{}, err
	}
	return m.InsertTree(doc, target, mode, frag)
}

// InsertTree inserts a parsed fragment relative to the target node.
func (m *Manager) InsertTree(doc, target int64, mode Mode, frag *xmltree.Node) (Stats, error) {
	if frag.Kind != xmltree.Element {
		return Stats{}, fmt.Errorf("inserted fragment must be an element")
	}
	t, err := m.fetch(doc, target)
	if err != nil {
		return Stats{}, err
	}
	if t.kind == xmltree.Attr {
		return Stats{}, fmt.Errorf("cannot insert relative to an attribute node")
	}
	switch mode {
	case FirstChild, LastChild:
		if t.kind != xmltree.Element {
			return Stats{}, fmt.Errorf("%s requires an element target", mode)
		}
	case Before, After:
		if t.parent == 0 {
			return Stats{}, fmt.Errorf("cannot insert a sibling of the document root")
		}
	default:
		return Stats{}, fmt.Errorf("bad insert mode %d", mode)
	}

	// One view publication for the whole renumber+insert sequence: readers
	// see the document before or after the insert, never mid-operation.
	// Safe because every key plan issues its reads (anchors, max order) and
	// nextID its own before the writes whose effects those reads would
	// observe.
	var stats Stats
	err = m.db.Atomically(func() error {
		var p plan
		var err error
		switch m.opts.Kind {
		case encoding.Global:
			p, err = m.planGlobal(doc, t, mode, int64(frag.Size()))
		case encoding.Local:
			p, err = m.planLocal(doc, t, mode)
		case encoding.Dewey:
			p, err = m.planDewey(doc, t, mode)
		default:
			return fmt.Errorf("update: unknown encoding kind %d", int(m.opts.Kind))
		}
		if err != nil {
			return err
		}
		if p.at.ID, err = m.nextID(doc); err != nil {
			return err
		}
		rows, err := shred.Rows(m.opts, doc, frag, p.at)
		if err != nil {
			return err
		}
		stats = Stats{RowsInserted: int64(len(rows)), NewID: p.at.ID}
		if p.shift != nil {
			if stats.RowsRenumbered, err = p.shift(); err != nil {
				return err
			}
		}
		// One bulk statement, so the whole subtree appears in a single
		// published snapshot.
		if _, err := m.db.BulkInsert(m.tbl, rows); err != nil {
			return err
		}
		_, err = m.db.Exec(bumpDocSize, sqldb.I(stats.RowsInserted), sqldb.I(doc))
		return err
	})
	return stats, err
}

// plan is one encoding's key plan for an insert: where the fragment's rows
// start (its root's parent and key; the id is read after the plan), and the
// renumbering that makes room for them, run once the rows are built (nil:
// the subtree fits in the gap).
type plan struct {
	at    shred.Start
	shift func() (int64, error)
}

// insertionParent resolves which node becomes the fragment root's parent.
func insertionParent(t node, mode Mode) int64 {
	if mode == FirstChild || mode == LastChild {
		return t.id
	}
	return t.parent
}

// nextID allocates fresh surrogate ids.
func (m *Manager) nextID(doc int64) (int64, error) {
	res, err := m.db.Query(m.maxID, sqldb.I(doc))
	if err != nil {
		return 0, err
	}
	if len(res.Rows) == 0 || res.Rows[0][0].IsNull() {
		return 1, nil
	}
	return res.Rows[0][0].Int() + 1, nil
}

// Delete removes the subtree rooted at id.
func (m *Manager) Delete(doc, id int64) (Stats, error) {
	t, err := m.fetch(doc, id)
	if err != nil {
		return Stats{}, err
	}
	// Published as one view change even for the Local encoding's
	// multi-statement recursion — a concurrent reader never sees a
	// half-deleted subtree (e.g. an element whose text child is gone).
	// The recursion reads each node's child list before deleting inside
	// that subtree, so running it against the pre-delete view is exact.
	var stats Stats
	err = m.db.Atomically(func() error {
		var err error
		switch m.opts.Kind {
		case encoding.Global:
			stats, err = m.deleteGlobal(doc, t)
		case encoding.Local:
			stats, err = m.deleteLocal(doc, t)
		case encoding.Dewey:
			stats, err = m.deleteDewey(doc, t)
		default:
			return fmt.Errorf("update: unknown encoding kind %d", int(m.opts.Kind))
		}
		if err != nil {
			return err
		}
		_, err = m.db.Exec(bumpDocSize, sqldb.I(-stats.RowsDeleted), sqldb.I(doc))
		return err
	})
	return stats, err
}

// SetValue rewrites the value of a text or attribute node in place. No
// order keys change, so the operation is renumbering-free under every
// encoding.
func (m *Manager) SetValue(doc, id int64, value string) error {
	t, err := m.fetch(doc, id)
	if err != nil {
		return err
	}
	if t.kind == xmltree.Element {
		return fmt.Errorf("node %d is an element; set the value of its text child", id)
	}
	_, err = m.db.Exec(sqlgen.SQL(
		`UPDATE %s SET value = ? WHERE doc = ? AND id = ?`, m.tbl),
		sqldb.S(value), sqldb.I(doc), sqldb.I(id))
	return err
}

// Rename changes an element tag or attribute name in place.
func (m *Manager) Rename(doc, id int64, name string) error {
	t, err := m.fetch(doc, id)
	if err != nil {
		return err
	}
	if t.kind == xmltree.Text {
		return fmt.Errorf("node %d is a text node and has no name", id)
	}
	_, err = m.db.Exec(sqlgen.SQL(
		`UPDATE %s SET tag = ? WHERE doc = ? AND id = ?`, m.tbl),
		sqldb.S(name), sqldb.I(doc), sqldb.I(id))
	return err
}

// Node returns the parent id of a node (0 for the root), for ancestry
// checks by higher layers.
func (m *Manager) Node(doc, id int64) (int64, error) {
	t, err := m.fetch(doc, id)
	if err != nil {
		return 0, err
	}
	return t.parent, nil
}
