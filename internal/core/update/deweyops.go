package update

import (
	"fmt"
	"math"

	"ordxml/internal/core/dewey"
	"ordxml/internal/sqldb"
	"ordxml/internal/sqldb/expr"
	"ordxml/internal/sqldb/sqltypes"
	"ordxml/internal/sqlgen"
	"ordxml/internal/xmltree"
)

// pathOf decodes a node's stored Dewey key.
func (m *Manager) pathOf(order sqltypes.Value) (dewey.Path, error) {
	if m.opts.DeweyAsText {
		return dewey.ParsePadded(order.Text())
	}
	return dewey.FromBytes(order.Blob())
}

// keyOf encodes a path for storage.
func (m *Manager) keyOf(p dewey.Path) sqltypes.Value {
	if m.opts.DeweyAsText {
		return sqldb.S(p.PaddedString())
	}
	return sqldb.B(p.Bytes())
}

// insertDewey assigns the fragment root a fresh sibling ordinal under its
// parent's path. When the local ordinal gap is exhausted, following siblings
// are renumbered — and, unlike the local encoding, each renumbered sibling
// drags its whole subtree along, because the sibling ordinal is a prefix
// component of every descendant path.
func (m *Manager) insertDewey(doc int64, t node, mode Mode, frag *xmltree.Node) (Stats, error) {
	tPath, err := m.pathOf(t.order)
	if err != nil {
		return Stats{}, err
	}
	var parentID int64
	var parentPath dewey.Path
	switch mode {
	case FirstChild, LastChild:
		parentID = t.id
		parentPath = tPath
	default:
		parentID = t.parent
		parentPath = tPath.Parent()
	}
	anchor, err := m.localAnchor(doc, t, mode)
	if err != nil {
		return Stats{}, err
	}
	gap := m.opts.EffectiveGap()
	stats := Stats{RowsInserted: int64(frag.Size())}
	// The fragment's own sibling components are checked before anything is
	// written; rows[0] is its root, whose component is chosen below.
	rows := flattenFragment(frag)
	comps := make([]uint32, len(rows))
	for i := 1; i < len(rows); i++ {
		if comps[i], err = dewey.Component(uint64(rows[i].ordinal)*uint64(gap), m.opts.DeweyAsText); err != nil {
			return stats, err
		}
	}

	var rootComp uint32
	if anchor == nil {
		last, err := m.lastChildComponent(doc, parentID)
		if err != nil {
			return stats, err
		}
		if rootComp, err = dewey.Component(uint64(last)+uint64(gap), m.opts.DeweyAsText); err != nil {
			return stats, err
		}
	} else {
		aPath, err := m.pathOf(anchor.order)
		if err != nil {
			return stats, err
		}
		aComp := aPath.Last()
		prevComp, err := m.prevSiblingComponent(doc, parentID, anchor.order)
		if err != nil {
			return stats, err
		}
		if aComp-prevComp > 1 {
			rootComp = prevComp + (aComp-prevComp)/2
		} else {
			renumbered, err := m.shiftDeweySiblings(doc, aPath, gap)
			if err != nil {
				return stats, err
			}
			stats.RowsRenumbered = renumbered
			rootComp = aComp
		}
	}

	var rootPath dewey.Path
	if parentPath == nil {
		// Inserting a sibling of the root is rejected earlier; parentPath is
		// nil only for first/last child of the root, where tPath is depth 1.
		return stats, fmt.Errorf("internal: no parent path")
	}
	rootPath = parentPath.Child(rootComp)

	base, err := m.nextID(doc)
	if err != nil {
		return stats, err
	}
	paths := map[int64]dewey.Path{}
	batch := make([]sqltypes.Row, 0, len(rows))
	for i := range rows {
		rows[i].id += base - 1
		pid := rows[i].parent
		var p dewey.Path
		if pid == 0 {
			pid = parentID
			p = rootPath
		} else {
			pid += base - 1
			p = paths[pid].Child(comps[i])
		}
		paths[rows[i].id] = p
		batch = append(batch, m.buildRow(doc, rows[i], pid, m.keyOf(p)))
	}
	if err := m.insertRows(batch); err != nil {
		return stats, err
	}
	stats.NewID = base
	return stats, nil
}

// lastChildComponent returns the sibling ordinal of parent's last child, or
// 0 when childless.
func (m *Manager) lastChildComponent(doc, parent int64) (uint32, error) {
	res, err := m.db.Query(sqlgen.SQL(
		`SELECT %s FROM %s WHERE doc = ? AND parent = ? ORDER BY %s DESC LIMIT 1`,
		m.ord, m.tbl, m.ord),
		sqldb.I(doc), sqldb.I(parent))
	if err != nil || len(res.Rows) == 0 {
		return 0, err
	}
	p, err := m.pathOf(res.Rows[0][0])
	if err != nil {
		return 0, err
	}
	return p.Last(), nil
}

// prevSiblingComponent returns the ordinal of the sibling immediately before
// the anchor, or 0.
func (m *Manager) prevSiblingComponent(doc, parent int64, anchorKey sqltypes.Value) (uint32, error) {
	res, err := m.db.Query(sqlgen.SQL(
		`SELECT %s FROM %s WHERE doc = ? AND parent = ? AND %s < ? ORDER BY %s DESC LIMIT 1`,
		m.ord, m.tbl, m.ord, m.ord),
		sqldb.I(doc), sqldb.I(parent), anchorKey)
	if err != nil || len(res.Rows) == 0 {
		return 0, err
	}
	p, err := m.pathOf(res.Rows[0][0])
	if err != nil {
		return 0, err
	}
	return p.Last(), nil
}

// shiftDeweySiblings renumbers every sibling at or after the anchor path by
// +delta ordinals, re-pathing each sibling's entire subtree. The affected
// rows form one contiguous key range — from the anchor path to the end of
// the parent's subtree — and every one of them moves by delta in the same
// component, the sibling ordinal, so the shift is one statement like
// Global's and Local's (uniqueness of the order index holds per statement);
// DEWEY_SHIFT does the codec arithmetic.
func (m *Manager) shiftDeweySiblings(doc int64, from dewey.Path, delta uint32) (int64, error) {
	parentPath := from.Parent()
	if parentPath == nil {
		return 0, fmt.Errorf("internal: anchor %s has no parent path", from)
	}
	var highKey sqltypes.Value
	if m.opts.DeweyAsText {
		highKey = sqldb.S(parentPath.PaddedPrefixSuccessor())
	} else {
		high := parentPath.PrefixSuccessor()
		if high == nil {
			return 0, fmt.Errorf("parent path has no successor")
		}
		highKey = sqldb.B(high)
	}
	n, err := m.db.Exec(m.deweyShiftSQL(),
		sqldb.I(int64(len(parentPath))), sqldb.I(int64(delta)), sqldb.I(doc), m.keyOf(from), highKey)
	return int64(n), err
}

// deweyShiftSQL adds ?2 to component ?1 of every path in [?4, ?5) of
// document ?3.
func (m *Manager) deweyShiftSQL() string {
	return sqlgen.SQL(
		`UPDATE %s SET %s = DEWEY_SHIFT(%s, ?, ?) WHERE doc = ? AND %s >= ? AND %s < ?`,
		m.tbl, m.ord, m.ord, m.ord, m.ord)
}

func init() { expr.RegisterScalar("DEWEY_SHIFT", deweyShift) }

// deweyShift is DEWEY_SHIFT(path, depth, delta): the stored Dewey key path —
// a BLOB under the binary codec, TEXT under the padded one — with delta added
// to its 0-based component depth. A shifted component outside the codec's
// range is an error, which fails the whole statement.
func deweyShift(a []sqltypes.Value) (sqltypes.Value, error) {
	if len(a) != 3 {
		return sqltypes.Value{}, fmt.Errorf("DEWEY_SHIFT takes 3 arguments, got %d", len(a))
	}
	if a[1].Type() != sqltypes.Int || a[2].Type() != sqltypes.Int {
		return sqltypes.Value{}, fmt.Errorf("DEWEY_SHIFT(%s, %s, %s): depth and delta must be INT", a[0].Type(), a[1].Type(), a[2].Type())
	}
	depth := a[1].Int()
	if depth < 0 || depth > math.MaxInt32 {
		return sqltypes.Value{}, fmt.Errorf("DEWEY_SHIFT: bad depth %d", depth)
	}
	switch a[0].Type() {
	case sqltypes.Blob:
		b, err := dewey.ShiftBytes(a[0].Blob(), int(depth), a[2].Int())
		if err != nil {
			return sqltypes.Value{}, err
		}
		return sqltypes.NewBlob(b), nil
	case sqltypes.Text:
		s, err := dewey.ShiftPadded(a[0].Text(), int(depth), a[2].Int())
		if err != nil {
			return sqltypes.Value{}, err
		}
		return sqltypes.NewText(s), nil
	}
	return sqltypes.Value{}, fmt.Errorf("DEWEY_SHIFT of %s", a[0].Type())
}

// deleteDewey removes the subtree with one path-range delete.
func (m *Manager) deleteDewey(doc int64, t node) (Stats, error) {
	p, err := m.pathOf(t.order)
	if err != nil {
		return Stats{}, err
	}
	var low, high sqltypes.Value
	if m.opts.DeweyAsText {
		low = sqldb.S(p.PaddedString())
		high = sqldb.S(p.PaddedPrefixSuccessor())
	} else {
		low = sqldb.B(p.Bytes())
		succ := p.PrefixSuccessor()
		if succ == nil {
			return Stats{}, fmt.Errorf("path has no successor")
		}
		high = sqldb.B(succ)
	}
	n, err := m.db.Exec(sqlgen.SQL(
		`DELETE FROM %s WHERE doc = ? AND %s >= ? AND %s < ?`, m.tbl, m.ord, m.ord),
		sqldb.I(doc), low, high)
	if err != nil {
		return Stats{}, err
	}
	return Stats{RowsDeleted: int64(n)}, nil
}
