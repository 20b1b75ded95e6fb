// Package publish reconstructs XML from the relational encodings — the
// inverse of shredding. Reconstruction cost differs sharply by encoding,
// which experiment E7 quantifies:
//
//   - Global and Dewey: one index scan in order-key order yields the
//     document in pre-order; the tree is rebuilt with a single pass.
//   - Local: sibling order is only meaningful per parent, so the publisher
//     fetches all rows and sorts each sibling group (or, for subtrees,
//     descends with one indexed child query per element).
//   - Subtrees: Dewey extracts a subtree with a single path-prefix range
//     scan; Global and Local must recurse through parent links.
package publish

import (
	"context"
	"fmt"
	"sort"

	"ordxml/internal/core/dewey"
	"ordxml/internal/core/encoding"
	"ordxml/internal/govern"
	"ordxml/internal/sqldb"
	"ordxml/internal/sqldb/sqltypes"
	"ordxml/internal/sqlgen"
	"ordxml/internal/xmltree"
)

// Publisher reconstructs documents from one encoding's tables.
type Publisher struct {
	db   *sqldb.DB
	opts encoding.Options

	// Statement texts; the engine's plan cache, keyed by them, spares each
	// its parse and plan after the first run.
	allOrdered string // doc rows in order-key order (global/dewey)
	allRows    string // doc rows unordered (local)
	children   string // rows under one parent in sibling order
	byID       string
	pathRange  string // dewey subtree range
}

// New prepares a publisher for the encoding.
func New(db *sqldb.DB, opts encoding.Options) (*Publisher, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if !encoding.Installed(db, opts) {
		return nil, fmt.Errorf("encoding %s is not installed", opts.Kind)
	}
	tbl, ord := opts.NodesTable(), opts.OrderColumn()
	cols := sqlgen.List("id", "parent", "kind", "tag", "value", ord)
	return &Publisher{db: db, opts: opts,
		allOrdered: sqlgen.SQL(`SELECT %s FROM %s WHERE doc = ? ORDER BY %s`, cols, tbl, ord),
		allRows:    sqlgen.SQL(`SELECT %s FROM %s WHERE doc = ?`, cols, tbl),
		children:   sqlgen.SQL(`SELECT %s FROM %s WHERE doc = ? AND parent = ? ORDER BY %s`, cols, tbl, ord),
		byID:       sqlgen.SQL(`SELECT %s FROM %s WHERE doc = ? AND id = ?`, cols, tbl),
		pathRange: sqlgen.SQL(`SELECT %s FROM %s WHERE doc = ? AND %s >= ? AND %s < ? ORDER BY %s`,
			cols, tbl, ord, ord, ord),
	}, nil
}

// nodeRow is one decoded node record.
type nodeRow struct {
	id     int64
	parent int64 // 0 = none
	kind   xmltree.Kind
	tag    string
	value  string
	order  sqltypes.Value
}

func decodeRow(r sqltypes.Row) (nodeRow, error) {
	kind, err := xmltree.ParseKind(r[2].Text())
	if err != nil {
		return nodeRow{}, err
	}
	n := nodeRow{id: r[0].Int(), kind: kind, order: r[5]}
	if !r[1].IsNull() {
		n.parent = r[1].Int()
	}
	if !r[3].IsNull() {
		n.tag = r[3].Text()
	}
	if !r[4].IsNull() {
		n.value = r[4].Text()
	}
	return n, nil
}

func (r nodeRow) toNode() *xmltree.Node {
	switch r.kind {
	case xmltree.Element:
		return xmltree.NewElement(r.tag)
	case xmltree.Attr:
		return xmltree.NewAttr(r.tag, r.value)
	default:
		return xmltree.NewText(r.value)
	}
}

// attach links child into parent respecting node kind.
func attach(parent, child *xmltree.Node) {
	if child.Kind == xmltree.Attr {
		child.Parent = parent
		parent.Attrs = append(parent.Attrs, child)
		return
	}
	parent.AddChild(child)
}

// Document is DocumentCtx with a background context and a snapshot of its
// own.
func (p *Publisher) Document(doc int64) (*xmltree.Node, error) {
	return p.DocumentCtx(context.Background(), nil, doc)
}

// DocumentCtx reconstructs the whole document as of a pinned snapshot (nil
// pins the current version), so every row it reads — across however many
// statements the encoding needs — comes from the same store version. The
// statements run governed by ctx (cancellation, deadline, memory budget) and
// join the request trace.
func (p *Publisher) DocumentCtx(ctx context.Context, snap *sqldb.Snap, doc int64) (*xmltree.Node, error) {
	if snap == nil {
		snap = p.db.Snapshot()
	}
	if p.opts.Kind == encoding.Local {
		return p.documentLocal(ctx, snap, doc)
	}
	res, err := snap.Query(ctx, p.allOrdered, sqldb.I(doc))
	if err != nil {
		return nil, err
	}
	return buildPreOrder(res.Rows, 0)
}

// buildPreOrder rebuilds a tree from rows sorted in document (pre-)order.
// rootParent identifies the parent id that marks the subtree root row.
func buildPreOrder(rows []sqltypes.Row, rootParent int64) (*xmltree.Node, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("no rows to publish")
	}
	byID := make(map[int64]*xmltree.Node, len(rows))
	var root *xmltree.Node
	for i, r := range rows {
		nr, err := decodeRow(r)
		if err != nil {
			return nil, err
		}
		n := nr.toNode()
		byID[nr.id] = n
		if i == 0 {
			if nr.parent != rootParent && rootParent != 0 {
				return nil, fmt.Errorf("subtree root mismatch: row parent %d", nr.parent)
			}
			root = n
			continue
		}
		parent, ok := byID[nr.parent]
		if !ok {
			return nil, fmt.Errorf("row %d arrived before its parent %d (order key corrupt?)", nr.id, nr.parent)
		}
		attach(parent, n)
	}
	return root, nil
}

// documentLocal rebuilds from the local encoding: one unordered scan, then a
// per-parent sibling sort.
func (p *Publisher) documentLocal(ctx context.Context, snap *sqldb.Snap, doc int64) (*xmltree.Node, error) {
	res, err := snap.Query(ctx, p.allRows, sqldb.I(doc))
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("no rows to publish")
	}
	type entry struct {
		row  nodeRow
		node *xmltree.Node
	}
	byParent := map[int64][]entry{}
	var root *entry
	for _, r := range res.Rows {
		nr, err := decodeRow(r)
		if err != nil {
			return nil, err
		}
		e := entry{row: nr, node: nr.toNode()}
		if nr.parent == 0 {
			root = &e
			continue
		}
		byParent[nr.parent] = append(byParent[nr.parent], e)
	}
	if root == nil {
		return nil, fmt.Errorf("document %d has no root row", doc)
	}
	var link func(e *entry)
	link = func(e *entry) {
		kids := byParent[e.row.id]
		sort.Slice(kids, func(a, b int) bool {
			return kids[a].row.order.Int() < kids[b].row.order.Int()
		})
		for i := range kids {
			attach(e.node, kids[i].node)
			link(&kids[i])
		}
	}
	link(root)
	return root.node, nil
}

// Subtree is SubtreeCtx with a background context and a snapshot of its own.
func (p *Publisher) Subtree(doc, id int64) (*xmltree.Node, error) {
	return p.SubtreeCtx(context.Background(), nil, doc, id)
}

// SubtreeCtx reconstructs the subtree rooted at the node with the given
// surrogate id, as of a pinned snapshot and under a caller context (see
// DocumentCtx).
func (p *Publisher) SubtreeCtx(ctx context.Context, snap *sqldb.Snap, doc, id int64) (*xmltree.Node, error) {
	if snap == nil {
		snap = p.db.Snapshot()
	}
	res, err := snap.Query(ctx, p.byID, sqldb.I(doc), sqldb.I(id))
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("document %d has no node %d", doc, id)
	}
	rootRow, err := decodeRow(res.Rows[0])
	if err != nil {
		return nil, err
	}
	if p.opts.Kind == encoding.Dewey {
		return p.subtreeDewey(ctx, snap, doc, rootRow)
	}
	// Global and Local: recurse through the (doc, parent, order) index —
	// there is no single range containing exactly the subtree.
	node := rootRow.toNode()
	if err := p.fillChildren(ctx, snap, doc, rootRow.id, node); err != nil {
		return nil, err
	}
	return node, nil
}

func (p *Publisher) fillChildren(ctx context.Context, snap *sqldb.Snap, doc, id int64, node *xmltree.Node) error {
	// One child query per element: the statements are too small to reach the
	// executor's poll interval, so the recursion checks the context itself.
	if err := govern.CtxErr(ctx); err != nil {
		return err
	}
	res, err := snap.Query(ctx, p.children, sqldb.I(doc), sqldb.I(id))
	if err != nil {
		return err
	}
	for _, r := range res.Rows {
		nr, err := decodeRow(r)
		if err != nil {
			return err
		}
		child := nr.toNode()
		attach(node, child)
		if err := p.fillChildren(ctx, snap, doc, nr.id, child); err != nil {
			return err
		}
	}
	return nil
}

// subtreeDewey extracts the subtree with one path-prefix range scan.
func (p *Publisher) subtreeDewey(ctx context.Context, snap *sqldb.Snap, doc int64, rootRow nodeRow) (*xmltree.Node, error) {
	var low, high sqltypes.Value
	if p.opts.DeweyAsText {
		ps := rootRow.order.Text()
		path, err := dewey.ParsePadded(ps)
		if err != nil {
			return nil, err
		}
		low = sqldb.S(ps)
		high = sqldb.S(path.PaddedPrefixSuccessor())
	} else {
		path, err := dewey.FromBytes(rootRow.order.Blob())
		if err != nil {
			return nil, err
		}
		low = sqldb.B(path.Bytes())
		succ := path.PrefixSuccessor()
		if succ == nil {
			return nil, fmt.Errorf("path has no prefix successor")
		}
		high = sqldb.B(succ)
	}
	res, err := snap.Query(ctx, p.pathRange, sqldb.I(doc), low, high)
	if err != nil {
		return nil, err
	}
	return buildPreOrder(res.Rows, rootRow.parent)
}
