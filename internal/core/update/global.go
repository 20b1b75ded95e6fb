package update

import (
	"ordxml/internal/core/shred"
	"ordxml/internal/sqldb"
	"ordxml/internal/sqlgen"
)

// planGlobal places a fragment of k nodes in the global order. The
// insertion point is expressed as the "anchor": the existing node that will
// immediately follow the new subtree in document order (nil when appending
// at the end). If the gap before the anchor cannot hold the subtree, every
// node from the anchor onward is shifted — the global encoding's worst case.
func (m *Manager) planGlobal(doc int64, t node, mode Mode, k int64) (plan, error) {
	anchor, err := m.globalAnchor(doc, t, mode)
	if err != nil {
		return plan{}, err
	}
	gap := int64(m.opts.EffectiveGap())
	p := plan{at: shred.Start{Parent: insertionParent(t, mode), Step: gap}}
	if anchor == nil {
		maxG, err := m.maxOrder(doc)
		p.at.Key = maxG + gap
		return p, err
	}
	aPos := anchor.order.Int()
	prev, err := m.maxOrderBelow(doc, aPos)
	if err != nil {
		return plan{}, err
	}
	if aPos-prev-1 >= k {
		// The subtree fits in the existing gap: spread it evenly, no
		// renumbering.
		p.at.Step = (aPos - prev) / (k + 1)
		p.at.Key = prev + p.at.Step
		return p, nil
	}
	p.at.Key = aPos
	p.shift = func() (int64, error) { return m.shiftGlobal(doc, aPos, k*gap) }
	return p, nil
}

// globalAnchor finds the node that will follow the inserted subtree.
func (m *Manager) globalAnchor(doc int64, t node, mode Mode) (*node, error) {
	switch mode {
	case Before:
		return &t, nil
	case FirstChild:
		first, err := m.firstNonAttrChild(doc, t.id)
		if err != nil {
			return nil, err
		}
		if first != nil {
			return first, nil
		}
		return m.successorAfterSubtree(doc, t)
	default: // After, LastChild
		return m.successorAfterSubtree(doc, t)
	}
}

// successorAfterSubtree is the first node in document order after t's
// subtree: t's next sibling, or the nearest ancestor's next sibling.
func (m *Manager) successorAfterSubtree(doc int64, t node) (*node, error) {
	for {
		if t.parent == 0 {
			return nil, nil
		}
		next, err := m.nextSibling(doc, t)
		if err != nil {
			return nil, err
		}
		if next != nil {
			return next, nil
		}
		parent, err := m.fetch(doc, t.parent)
		if err != nil {
			return nil, err
		}
		t = parent
	}
}

func (m *Manager) nextSibling(doc int64, t node) (*node, error) {
	res, err := m.db.Query(sqlgen.SQL(
		`SELECT id, parent, kind, %s FROM %s WHERE doc = ? AND parent = ? AND %s > ? ORDER BY %s LIMIT 1`,
		m.ord, m.tbl, m.ord, m.ord),
		sqldb.I(doc), sqldb.I(t.parent), t.order)
	if err != nil || len(res.Rows) == 0 {
		return nil, err
	}
	n, err := decodeNode(res.Rows[0])
	return &n, err
}

func (m *Manager) firstNonAttrChild(doc, parent int64) (*node, error) {
	res, err := m.db.Query(sqlgen.SQL(
		`SELECT id, parent, kind, %s FROM %s WHERE doc = ? AND parent = ? AND kind <> 'attr' ORDER BY %s LIMIT 1`,
		m.ord, m.tbl, m.ord),
		sqldb.I(doc), sqldb.I(parent))
	if err != nil || len(res.Rows) == 0 {
		return nil, err
	}
	n, err := decodeNode(res.Rows[0])
	return &n, err
}

func (m *Manager) maxOrder(doc int64) (int64, error) {
	res, err := m.db.Query(sqlgen.SQL(`SELECT MAX(%s) FROM %s WHERE doc = ?`, m.ord, m.tbl),
		sqldb.I(doc))
	if err != nil {
		return 0, err
	}
	if len(res.Rows) == 0 || res.Rows[0][0].IsNull() {
		return 0, nil
	}
	return res.Rows[0][0].Int(), nil
}

func (m *Manager) maxOrderBelow(doc, below int64) (int64, error) {
	res, err := m.db.Query(sqlgen.SQL(
		`SELECT MAX(%s) FROM %s WHERE doc = ? AND %s < ?`, m.ord, m.tbl, m.ord),
		sqldb.I(doc), sqldb.I(below))
	if err != nil {
		return 0, err
	}
	if len(res.Rows) == 0 || res.Rows[0][0].IsNull() {
		return 0, nil
	}
	return res.Rows[0][0].Int(), nil
}

// shiftGlobal adds delta to the global order of every node at or after
// from, in one statement; the engine checks uniqueness per statement, so the
// shift never collides with itself.
func (m *Manager) shiftGlobal(doc, from, delta int64) (int64, error) {
	n, err := m.db.Exec(sqlgen.SQL(
		`UPDATE %s SET %s = %s + ? WHERE doc = ? AND %s >= ?`, m.tbl, m.ord, m.ord, m.ord),
		sqldb.I(delta), sqldb.I(doc), sqldb.I(from))
	return int64(n), err
}

// deleteGlobal removes the contiguous global-order range of t's subtree.
func (m *Manager) deleteGlobal(doc int64, t node) (Stats, error) {
	succ, err := m.successorAfterSubtree(doc, t)
	if err != nil {
		return Stats{}, err
	}
	var n int
	if succ == nil {
		n, err = m.db.Exec(sqlgen.SQL(
			`DELETE FROM %s WHERE doc = ? AND %s >= ?`, m.tbl, m.ord),
			sqldb.I(doc), t.order)
		if err != nil {
			return Stats{}, err
		}
	} else {
		n, err = m.db.Exec(sqlgen.SQL(
			`DELETE FROM %s WHERE doc = ? AND %s >= ? AND %s < ?`, m.tbl, m.ord, m.ord),
			sqldb.I(doc), t.order, succ.order)
		if err != nil {
			return Stats{}, err
		}
	}
	return Stats{RowsDeleted: int64(n)}, nil
}
