// Package publish reconstructs XML from the relational encodings — the
// inverse of shredding. It turns rows into xmltree events (xmltree.Handler):
// into an xmltree.Writer they are the XML text, into an xmltree.Builder a
// tree. Reconstruction cost differs sharply by encoding, which experiment E7
// quantifies:
//
//   - Documents under Global and Dewey: one index scan in order-key order
//     yields the rows in document order, and a stack of open elements turns
//     them into events in one pass: an element closes when a row arrives
//     whose parent it is not. This is the constant-space tagger over sorted
//     rows of Shanmugasundaram et al., "Efficiently publishing relational
//     data as XML documents" (VLDB 2000).
//   - Documents under Local: sibling order is only meaningful per parent, so
//     the publisher fetches all rows, sorts each sibling group and emits the
//     groups depth first.
//   - Subtrees are read set-at-a-time, for any number of roots at once (see
//     SubtreesCtx): Dewey reads them with one statement over the roots'
//     path-prefix intervals; Global and Local have no range holding exactly a
//     subtree, so they read one statement per tree level, joining the whole
//     frontier to the (doc, parent, order) index. The sibling groups are
//     emitted depth first.
//
// Every statement is read through a governed cursor, row by row.
package publish

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"ordxml/internal/core/encoding"
	"ordxml/internal/core/translate"
	"ordxml/internal/govern"
	"ordxml/internal/sqldb"
	"ordxml/internal/sqldb/sqltypes"
	"ordxml/internal/sqlgen"
	"ordxml/internal/xmltree"
)

// nodeRef is one node row; translate.DecodeNode decodes every statement's.
type nodeRef = translate.NodeRef

// Publisher reconstructs documents from one encoding's tables.
type Publisher struct {
	db   *sqldb.DB
	opts encoding.Options

	// Statement texts; the engine's plan cache, keyed by them, spares each
	// its parse and plan after the first run. Each selects the columns
	// translate.DecodeNode reads.
	allOrdered string // doc rows in order-key order (global/dewey)
	allRows    string // doc rows unordered (local)
	byID       string
	level      string // children of a frontier of ids (global/local)
	intervals  string // rows inside a set of order-key intervals (dewey)
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
	cols := sqlgen.List("id", "parent", ord, "kind", "tag", "value")
	p := &Publisher{db: db, opts: opts,
		allOrdered: sqlgen.SQL(`SELECT %s FROM %s WHERE doc = ? ORDER BY %s`, cols, tbl, ord),
		allRows:    sqlgen.SQL(`SELECT %s FROM %s WHERE doc = ?`, cols, tbl),
		byID:       sqlgen.SQL(`SELECT %s FROM %s WHERE doc = ? AND id = ?`, cols, tbl),
	}
	if opts.Kind == encoding.Dewey {
		p.intervals = sqlgen.SQL(`SELECT n.id, n.parent, n.%s, n.kind, n.tag, n.value `+
			`FROM ? c (id, ord, hi), %s n WHERE n.doc = ? AND n.%s > c.ord AND n.%s < c.hi`, ord, tbl, ord, ord)
	} else {
		p.level = sqlgen.SQL(`SELECT n.id, n.parent, n.%s, n.kind, n.tag, n.value `+
			`FROM ? c (id), %s n WHERE n.doc = ? AND n.parent = c.id`, ord, tbl)
	}
	return p, nil
}

// each runs one statement against snap and hands fn every row, decoded.
func each(ctx context.Context, snap *sqldb.Snap, sql string, fn func(nodeRef) error, params ...sqltypes.Value) error {
	rows, err := snap.QueryRows(ctx, sql, params...)
	if err != nil {
		return err
	}
	defer rows.Close()
	for rows.Next() {
		ref, err := translate.DecodeNode(rows.Row())
		if err != nil {
			return err
		}
		if err := fn(ref); err != nil {
			return err
		}
	}
	return rows.Err()
}

// Document reconstructs the whole document as a tree: EmitDocument into an
// xmltree.Builder, with a background context and a snapshot of its own.
func (p *Publisher) Document(doc int64) (*xmltree.Node, error) {
	var b xmltree.Builder
	if err := p.EmitDocument(context.Background(), nil, doc, &b); err != nil {
		return nil, err
	}
	return b.Root(), nil
}

// EmitDocument hands the whole document to h as events in document order,
// as of a pinned snapshot (nil pins the current version), so every row it
// reads — across however many statements the encoding needs — comes from
// the same store version. The statements run governed by ctx (cancellation,
// deadline, memory budget) and join the request trace.
func (p *Publisher) EmitDocument(ctx context.Context, snap *sqldb.Snap, doc int64, h xmltree.Handler) error {
	if snap == nil {
		snap = p.db.Snapshot()
	}
	if p.opts.Kind == encoding.Local {
		return p.emitLocal(ctx, snap, doc, h)
	}
	return p.emitPreOrder(ctx, snap, doc, h)
}

// emitPreOrder hands h the document's rows as they arrive in document
// (pre-)order, keeping only the open elements: an element closes when a row
// arrives whose parent it is not, and the rest close after the last row.
func (p *Publisher) emitPreOrder(ctx context.Context, snap *sqldb.Snap, doc int64, h xmltree.Handler) error {
	type openElem struct {
		id  int64
		tag string
	}
	var open []openElem
	rows := 0
	err := each(ctx, snap, p.allOrdered, func(r nodeRef) error {
		if rows > 0 {
			for len(open) > 0 && open[len(open)-1].id != r.Parent {
				if err := h.End(open[len(open)-1].tag); err != nil {
					return err
				}
				open = open[:len(open)-1]
			}
			if len(open) == 0 {
				return fmt.Errorf("row %d arrived outside its parent %d (order key corrupt?)", r.ID, r.Parent)
			}
		}
		rows++
		if r.Kind == xmltree.Element {
			open = append(open, openElem{r.ID, r.Tag})
		}
		return emitRow(&r, h)
	}, sqldb.I(doc))
	if err == nil && rows == 0 {
		err = fmt.Errorf("no rows to publish")
	}
	for i := len(open) - 1; err == nil && i >= 0; i-- {
		err = h.End(open[i].tag)
	}
	return err
}

// emitRow hands h one row's event: an element's start, an attribute or a
// text node.
func emitRow(r *nodeRef, h xmltree.Handler) error {
	switch r.Kind {
	case xmltree.Element:
		return h.Start(r.Tag)
	case xmltree.Attr:
		return h.Attr(r.Tag, r.Value)
	default:
		return h.Text(r.Value)
	}
}

// emitLocal publishes from the local encoding: one unordered scan, then a
// per-parent sibling sort, then the sibling groups depth first.
func (p *Publisher) emitLocal(ctx context.Context, snap *sqldb.Snap, doc int64, h xmltree.Handler) error {
	sub := Subtrees{kids: map[int64][]nodeRef{}}
	var root *nodeRef
	err := each(ctx, snap, p.allRows, func(r nodeRef) error {
		if r.Parent == 0 {
			root = &r
		} else {
			sub.kids[r.Parent] = append(sub.kids[r.Parent], r)
		}
		return nil
	}, sqldb.I(doc))
	if err != nil {
		return err
	}
	if root == nil {
		return fmt.Errorf("document %d has no root row", doc)
	}
	sub.sortSiblings()
	return sub.emit(root, h)
}

// Subtree reconstructs the subtree rooted at the node with the given
// surrogate id as a tree: EmitSubtree into an xmltree.Builder, with a
// background context and a snapshot of its own.
func (p *Publisher) Subtree(doc, id int64) (*xmltree.Node, error) {
	var b xmltree.Builder
	if err := p.EmitSubtree(context.Background(), nil, doc, id, &b); err != nil {
		return nil, err
	}
	return b.Root(), nil
}

// EmitSubtree hands the subtree rooted at the node with the given surrogate
// id to h as events, as of a pinned snapshot and under a caller context (see
// EmitDocument): one statement reads the root's row, then SubtreesCtx the
// rest.
func (p *Publisher) EmitSubtree(ctx context.Context, snap *sqldb.Snap, doc, id int64, h xmltree.Handler) error {
	if snap == nil {
		snap = p.db.Snapshot()
	}
	var root []nodeRef
	err := each(ctx, snap, p.byID, func(r nodeRef) error {
		root = append(root, r)
		return nil
	}, sqldb.I(doc), sqldb.I(id))
	if err != nil {
		return err
	}
	if len(root) == 0 {
		return fmt.Errorf("document %d has no node %d", doc, id)
	}
	sub, err := p.SubtreesCtx(ctx, snap, doc, root)
	if err != nil {
		return err
	}
	return sub.emit(&root[0], h)
}

// Subtrees is what one SubtreesCtx call read: every node below its roots,
// grouped under its parent in sibling order. A root that lies inside another
// root's subtree shares that subtree's rows.
type Subtrees struct {
	kids map[int64][]nodeRef
}

// SubtreesCtx reads the subtrees under roots, rows the caller already holds,
// as of snap (nil pins the current version) and under ctx. Roots may repeat
// and may nest. Global and Local run one statement per tree level, for the
// children of every element of the level at once; Dewey runs one statement
// over the order-key intervals of the outermost element roots. Attribute and
// text roots need no statement.
func (p *Publisher) SubtreesCtx(ctx context.Context, snap *sqldb.Snap, doc int64, roots []nodeRef) (*Subtrees, error) {
	if snap == nil {
		snap = p.db.Snapshot()
	}
	sub := &Subtrees{kids: map[int64][]nodeRef{}}
	var elems []nodeRef
	for _, r := range roots {
		if r.Kind == xmltree.Element {
			elems = append(elems, r)
		}
	}
	var err error
	if p.opts.Kind == encoding.Dewey {
		err = p.readIntervals(ctx, snap, doc, elems, sub)
	} else {
		err = p.readLevels(ctx, snap, doc, elems, sub)
	}
	if err != nil {
		return nil, err
	}
	sub.sortSiblings()
	return sub, nil
}

// readLevels fetches the subtrees one tree level per statement: the children
// of the frontier's distinct ids, probed in id order, whose elements form the
// next frontier. An id already expanded — a root inside another root's
// subtree — is not asked for again.
func (p *Publisher) readLevels(ctx context.Context, snap *sqldb.Snap, doc int64, elems []nodeRef, sub *Subtrees) error {
	frontier := make([]int64, len(elems))
	for i, e := range elems {
		frontier[i] = e.ID
	}
	expanded := map[int64]bool{}
	for len(frontier) > 0 {
		slices.Sort(frontier)
		frontier = slices.Compact(frontier)
		var rel []byte
		for i, id := range frontier {
			if err := poll(ctx, i); err != nil {
				return err
			}
			if !expanded[id] {
				expanded[id] = true
				rel = sqltypes.EncodeRow(rel, []sqltypes.Value{sqldb.I(id)})
			}
		}
		if rel == nil {
			break
		}
		frontier = frontier[:0]
		err := each(ctx, snap, p.level, func(r nodeRef) error {
			sub.kids[r.Parent] = append(sub.kids[r.Parent], r)
			if r.Kind == xmltree.Element {
				frontier = append(frontier, r.ID)
			}
			return nil
		}, sqltypes.NewBlob(rel), sqldb.I(doc))
		if err != nil {
			return err
		}
	}
	return nil
}

// readIntervals fetches the subtrees with one statement over the open
// order-key intervals (root, prefix successor) of the element roots, in key
// order. A root inside an earlier root's interval adds no interval: its
// rows are read with the enclosing root's.
func (p *Publisher) readIntervals(ctx context.Context, snap *sqldb.Snap, doc int64, elems []nodeRef, sub *Subtrees) error {
	slices.SortFunc(elems, func(a, b nodeRef) int { return sqltypes.Compare(a.Order, b.Order) })
	var rel []byte
	var end sqltypes.Value // upper bound of the last interval kept
	for i, e := range elems {
		if err := poll(ctx, i); err != nil {
			return err
		}
		if rel != nil && sqltypes.Compare(e.Order, end) < 0 {
			continue
		}
		hi, err := translate.DeweySuccessor(p.opts, e.Order)
		if err != nil {
			return err
		}
		rel = sqltypes.EncodeRow(rel, []sqltypes.Value{sqldb.I(e.ID), e.Order, hi})
		end = hi
	}
	if rel == nil {
		return nil
	}
	return each(ctx, snap, p.intervals, func(r nodeRef) error {
		sub.kids[r.Parent] = append(sub.kids[r.Parent], r)
		return nil
	}, sqltypes.NewBlob(rel), sqldb.I(doc))
}

// sortSiblings puts every sibling group in order-key order. The statements
// deliver siblings in index order already, which the check leaves as is.
func (s *Subtrees) sortSiblings() {
	byOrder := func(a, b nodeRef) int { return sqltypes.Compare(a.Order, b.Order) }
	for _, kids := range s.kids {
		if !slices.IsSortedFunc(kids, byOrder) {
			slices.SortFunc(kids, byOrder)
		}
	}
}

// emit hands h the subtree under root, one of the roots the Subtrees were
// read for or a node inside one of their subtrees, as events in document
// order.
func (s *Subtrees) emit(root *nodeRef, h xmltree.Handler) error {
	if err := emitRow(root, h); err != nil || root.Kind != xmltree.Element {
		return err
	}
	kids := s.kids[root.ID]
	for i := range kids {
		if err := s.emit(&kids[i], h); err != nil {
			return err
		}
	}
	return h.End(root.Tag)
}

// StringValues returns each root's XPath string value: the values of its
// text descendants in document order, or an attribute's or text node's own
// value. The roots are those the Subtrees were read for, or nodes inside
// their subtrees.
func (s *Subtrees) StringValues(ctx context.Context, roots []nodeRef) ([]string, error) {
	out := make([]string, len(roots))
	var sb strings.Builder
	for i, r := range roots {
		if err := poll(ctx, i); err != nil {
			return nil, err
		}
		if r.Kind != xmltree.Element {
			out[i] = r.Value
			continue
		}
		sb.Reset()
		s.appendText(&sb, r.ID)
		out[i] = sb.String()
	}
	return out, nil
}

func (s *Subtrees) appendText(sb *strings.Builder, id int64) {
	for _, k := range s.kids[id] {
		switch k.Kind {
		case xmltree.Text:
			sb.WriteString(k.Value)
		case xmltree.Element:
			s.appendText(sb, k.ID)
		}
	}
}

// poll checks ctx once per govern.PollInterval iterations of a client-side
// loop; the cursors poll inside each statement.
func poll(ctx context.Context, i int) error {
	if i%govern.PollInterval != 0 {
		return nil
	}
	return govern.CtxErr(ctx)
}
