package update

import (
	"ordxml/internal/core/shred"
	"ordxml/internal/sqldb"
	"ordxml/internal/sqlgen"
)

// planLocal places the fragment under its parent with a fresh sibling
// ordinal. Only following siblings can need renumbering; the fragment's
// interior gets fresh per-parent numbering, so subtree size never matters —
// the local encoding's defining strength.
func (m *Manager) planLocal(doc int64, t node, mode Mode) (plan, error) {
	parentID := insertionParent(t, mode)
	anchor, err := m.localAnchor(doc, t, mode)
	if err != nil {
		return plan{}, err
	}
	gap := int64(m.opts.EffectiveGap())
	p := plan{at: shred.Start{Parent: parentID}}
	if anchor == nil {
		maxL, err := m.maxChildOrder(doc, parentID)
		p.at.Key = maxL + gap
		return p, err
	}
	aPos := anchor.order.Int()
	prev, err := m.maxChildOrderBelow(doc, parentID, aPos)
	if err != nil {
		return plan{}, err
	}
	if aPos-prev > 1 {
		p.at.Key = prev + (aPos-prev)/2
		return p, nil
	}
	p.at.Key = aPos
	p.shift = func() (int64, error) { return m.shiftSiblings(doc, parentID, aPos, gap) }
	return p, nil
}

// localAnchor finds the sibling the new node goes in front of (nil: append).
func (m *Manager) localAnchor(doc int64, t node, mode Mode) (*node, error) {
	switch mode {
	case Before:
		return &t, nil
	case After:
		return m.nextSibling(doc, t)
	case FirstChild:
		return m.firstNonAttrChild(doc, t.id)
	default: // LastChild
		return nil, nil
	}
}

func (m *Manager) maxChildOrder(doc, parent int64) (int64, error) {
	res, err := m.db.Query(sqlgen.SQL(
		`SELECT MAX(%s) FROM %s WHERE doc = ? AND parent = ?`, m.ord, m.tbl),
		sqldb.I(doc), sqldb.I(parent))
	if err != nil {
		return 0, err
	}
	if len(res.Rows) == 0 || res.Rows[0][0].IsNull() {
		return 0, nil
	}
	return res.Rows[0][0].Int(), nil
}

func (m *Manager) maxChildOrderBelow(doc, parent, below int64) (int64, error) {
	res, err := m.db.Query(sqlgen.SQL(
		`SELECT MAX(%s) FROM %s WHERE doc = ? AND parent = ? AND %s < ?`, m.ord, m.tbl, m.ord),
		sqldb.I(doc), sqldb.I(parent), sqldb.I(below))
	if err != nil {
		return 0, err
	}
	if len(res.Rows) == 0 || res.Rows[0][0].IsNull() {
		return 0, nil
	}
	return res.Rows[0][0].Int(), nil
}

// shiftSiblings adds delta to the sibling order of every child of parent at
// or after from, in one statement (uniqueness of the sibling index holds per
// statement).
func (m *Manager) shiftSiblings(doc, parent, from, delta int64) (int64, error) {
	n, err := m.db.Exec(sqlgen.SQL(
		`UPDATE %s SET %s = %s + ? WHERE doc = ? AND parent = ? AND %s >= ?`, m.tbl, m.ord, m.ord, m.ord),
		sqldb.I(delta), sqldb.I(doc), sqldb.I(parent), sqldb.I(from))
	return int64(n), err
}

// deleteLocal removes the subtree by walking children (the local encoding
// has no subtree range).
func (m *Manager) deleteLocal(doc int64, t node) (Stats, error) {
	childSel := sqlgen.SQL(
		`SELECT id FROM %s WHERE doc = ? AND parent = ?`, m.tbl)
	del := sqlgen.SQL(
		`DELETE FROM %s WHERE doc = ? AND id = ?`, m.tbl)
	var count int64
	var walk func(id int64) error
	walk = func(id int64) error {
		res, err := m.db.Query(childSel, sqldb.I(doc), sqldb.I(id))
		if err != nil {
			return err
		}
		for _, r := range res.Rows {
			if err := walk(r[0].Int()); err != nil {
				return err
			}
		}
		if _, err := m.db.Exec(del, sqldb.I(doc), sqldb.I(id)); err != nil {
			return err
		}
		count++
		return nil
	}
	if err := walk(t.id); err != nil {
		return Stats{RowsDeleted: count}, err
	}
	return Stats{RowsDeleted: count}, nil
}
