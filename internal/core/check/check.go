// Package check verifies the structural invariants of a shredded document —
// the consistency contract between the relational rows and the ordered XML
// they encode. It is the storage-level sanity tool (exposed as Store.Check):
// after any sequence of updates, a document must still satisfy every
// invariant of its encoding.
package check

import (
	"fmt"

	"ordxml/internal/core/dewey"
	"ordxml/internal/core/encoding"
	"ordxml/internal/sqldb"
	"ordxml/internal/sqldb/sqltypes"
	"ordxml/internal/sqlgen"
	"ordxml/internal/xmltree"
)

// Checker verifies documents stored under one encoding.
type Checker struct {
	db   *sqldb.DB
	opts encoding.Options
	all  string // every node row of one document
}

// New prepares a checker.
func New(db *sqldb.DB, opts encoding.Options) (*Checker, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if !encoding.Installed(db, opts) {
		return nil, fmt.Errorf("encoding %s is not installed", opts.Kind)
	}
	return &Checker{db: db, opts: opts, all: sqlgen.SQL(
		`SELECT id, parent, kind, tag, value, %s FROM %s WHERE doc = ?`,
		opts.OrderColumn(), opts.NodesTable())}, nil
}

// row is one decoded node row.
type row struct {
	id     int64
	parent int64
	kind   xmltree.Kind
	tag    string
	hasTag bool
	value  sqltypes.Value
	order  sqltypes.Value
}

// Document verifies every invariant for one document and returns the list of
// violations (empty means consistent).
func (c *Checker) Document(doc int64) ([]string, error) {
	res, err := c.db.Query(c.all, sqldb.I(doc))
	if err != nil {
		return nil, err
	}
	var problems []string
	report := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	rows := make(map[int64]row, len(res.Rows))
	var roots []int64
	for _, r := range res.Rows {
		kind, err := xmltree.ParseKind(r[2].Text())
		if err != nil {
			report("node %d: bad kind %q", r[0].Int(), r[2].Text())
			continue
		}
		n := row{id: r[0].Int(), kind: kind, value: r[4], order: r[5]}
		if !r[1].IsNull() {
			n.parent = r[1].Int()
		} else {
			roots = append(roots, n.id)
		}
		if !r[3].IsNull() {
			n.tag, n.hasTag = r[3].Text(), true
		}
		rows[n.id] = n
	}
	if len(res.Rows) == 0 {
		return []string{fmt.Sprintf("document %d has no rows", doc)}, nil
	}

	// Registry consistency.
	meta, err := c.db.Query(`SELECT nodes FROM docs WHERE doc = ?`, sqldb.I(doc))
	if err != nil {
		return nil, err
	}
	if len(meta.Rows) == 0 {
		report("document %d missing from docs registry", doc)
	} else if got := meta.Rows[0][0].Int(); got != int64(len(rows)) {
		report("docs.nodes = %d but %d rows stored", got, len(rows))
	}

	// Exactly one root, and it is an element.
	if len(roots) != 1 {
		report("document has %d roots, want 1", len(roots))
	} else if rows[roots[0]].kind != xmltree.Element {
		report("root %d is %s, want element", roots[0], rows[roots[0]].kind)
	}

	// Per-node shape invariants.
	for _, n := range rows {
		switch n.kind {
		case xmltree.Element:
			if !n.hasTag || n.tag == "" {
				report("element %d has no tag", n.id)
			}
			if !n.value.IsNull() {
				report("element %d has a value", n.id)
			}
		case xmltree.Attr:
			if !n.hasTag || n.tag == "" {
				report("attribute %d has no name", n.id)
			}
			if n.value.IsNull() {
				report("attribute %d has no value", n.id)
			}
		case xmltree.Text:
			if n.hasTag {
				report("text node %d has a tag", n.id)
			}
			if n.value.IsNull() {
				report("text node %d has no value", n.id)
			}
		}
		if n.parent != 0 {
			p, ok := rows[n.parent]
			switch {
			case !ok:
				report("node %d has missing parent %d", n.id, n.parent)
			case p.kind != xmltree.Element:
				report("node %d has non-element parent %d (%s)", n.id, n.parent, p.kind)
			}
		}
	}

	// Encoding-specific order invariants.
	switch c.opts.Kind {
	case encoding.Global:
		c.checkGlobal(rows, report)
	case encoding.Local:
		c.checkLocal(rows, report)
	case encoding.Dewey:
		c.checkDewey(rows, report)
	default:
		return nil, fmt.Errorf("check: unknown encoding kind %d", int(c.opts.Kind))
	}
	return problems, nil
}

// checkGlobal: every node's global order exceeds its parent's (a parent
// precedes its whole subtree in document order); orders are unique.
func (c *Checker) checkGlobal(rows map[int64]row, report func(string, ...any)) {
	seen := map[int64]int64{}
	for _, n := range rows {
		g := n.order.Int()
		if prev, dup := seen[g]; dup {
			report("nodes %d and %d share gorder %d", prev, n.id, g)
		}
		seen[g] = n.id
		if n.parent != 0 {
			if p, ok := rows[n.parent]; ok && p.order.Int() >= g {
				report("node %d (gorder %d) does not follow its parent %d (gorder %d)",
					n.id, g, p.id, p.order.Int())
			}
		}
	}
}

// checkLocal: sibling orders are unique per parent and positive.
func (c *Checker) checkLocal(rows map[int64]row, report func(string, ...any)) {
	type slot struct{ parent, order int64 }
	seen := map[slot]int64{}
	for _, n := range rows {
		l := n.order.Int()
		if l <= 0 {
			report("node %d has non-positive lorder %d", n.id, l)
		}
		key := slot{n.parent, l}
		if prev, dup := seen[key]; dup {
			report("nodes %d and %d share lorder %d under parent %d", prev, n.id, l, n.parent)
		}
		seen[key] = n.id
	}
}

// checkDewey: each node's path is its parent's path plus exactly one
// component; the root path has depth 1; paths are unique (enforced by the
// index, re-verified here).
func (c *Checker) checkDewey(rows map[int64]row, report func(string, ...any)) {
	paths := make(map[int64]dewey.Path, len(rows))
	for _, n := range rows {
		p, err := c.opts.DeweyPath(n.order)
		if err != nil {
			report("node %d has undecodable path: %v", n.id, err)
			continue
		}
		paths[n.id] = p
	}
	for _, n := range rows {
		p, ok := paths[n.id]
		if !ok {
			continue
		}
		if n.parent == 0 {
			if p.Depth() != 1 {
				report("root %d has path %s, want depth 1", n.id, p)
			}
			continue
		}
		pp, ok := paths[n.parent]
		if !ok {
			continue // missing parent already reported
		}
		if p.Depth() != pp.Depth()+1 || !pp.IsAncestorOf(p) {
			report("node %d path %s is not a direct extension of parent %d path %s",
				n.id, p, n.parent, pp)
		}
	}
}
