package update

import (
	"fmt"
	"math"

	"ordxml/internal/core/dewey"
	"ordxml/internal/core/shred"
	"ordxml/internal/sqldb"
	"ordxml/internal/sqldb/expr"
	"ordxml/internal/sqldb/sqltypes"
	"ordxml/internal/sqlgen"
)

// planDewey gives the fragment root a fresh sibling ordinal under its
// parent's path. When the local ordinal gap is exhausted, following siblings
// are renumbered — and, unlike the local encoding, each renumbered sibling
// drags its whole subtree along, because the sibling ordinal is a prefix
// component of every descendant path.
func (m *Manager) planDewey(doc int64, t node, mode Mode) (plan, error) {
	tPath, err := m.opts.DeweyPath(t.order)
	if err != nil {
		return plan{}, err
	}
	p := plan{at: shred.Start{Parent: insertionParent(t, mode), Prefix: tPath}}
	if mode == Before || mode == After {
		p.at.Prefix = tPath.Parent()
	}
	anchor, err := m.localAnchor(doc, t, mode)
	if err != nil {
		return plan{}, err
	}
	gap := m.opts.EffectiveGap()
	if anchor == nil {
		last, err := m.lastChildComponent(doc, p.at.Parent)
		p.at.Key = int64(last) + int64(gap)
		return p, err
	}
	aPath, err := m.opts.DeweyPath(anchor.order)
	if err != nil {
		return plan{}, err
	}
	aComp := aPath.Last()
	prevComp, err := m.prevSiblingComponent(doc, p.at.Parent, anchor.order)
	if err != nil {
		return plan{}, err
	}
	if aComp-prevComp > 1 {
		p.at.Key = int64(prevComp + (aComp-prevComp)/2)
		return p, nil
	}
	p.at.Key = int64(aComp)
	p.shift = func() (int64, error) { return m.shiftDeweySiblings(doc, aPath, gap) }
	return p, nil
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
	p, err := m.opts.DeweyPath(res.Rows[0][0])
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
	p, err := m.opts.DeweyPath(res.Rows[0][0])
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
	high, err := m.opts.DeweyUpper(parentPath)
	if err != nil {
		return 0, err
	}
	low, _ := m.opts.DeweyKey(nil, from)
	n, err := m.db.Exec(m.deweyShiftSQL(),
		sqldb.I(int64(len(parentPath))), sqldb.I(int64(delta)), sqldb.I(doc), low, high)
	return int64(n), err
}

// deweyShiftSQL adds ?2 to component ?1 of every path in [?4, ?5) of
// document ?3.
func (m *Manager) deweyShiftSQL() string {
	return sqlgen.SQL(
		`UPDATE %s SET %s = DEWEY_SHIFT(%s, ?, ?) WHERE doc = ? AND %s >= ? AND %s < ?`,
		m.tbl, m.ord, m.ord, m.ord, m.ord)
}

// DEWEY_SHIFT with a positive delta adds to one component of paths that all
// have it, so it keeps their order and moves each up: a sibling shift may
// rewrite the order column's index entries in place.
func init() { expr.RegisterIncreasing("DEWEY_SHIFT", deweyShift, 2) }

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

// deleteDewey removes the subtree with one path-range delete, from t's own
// key to its subtree's upper bound.
func (m *Manager) deleteDewey(doc int64, t node) (Stats, error) {
	p, err := m.opts.DeweyPath(t.order)
	if err != nil {
		return Stats{}, err
	}
	high, err := m.opts.DeweyUpper(p)
	if err != nil {
		return Stats{}, err
	}
	n, err := m.db.Exec(sqlgen.SQL(
		`DELETE FROM %s WHERE doc = ? AND %s >= ? AND %s < ?`, m.tbl, m.ord, m.ord),
		sqldb.I(doc), t.order, high)
	if err != nil {
		return Stats{}, err
	}
	return Stats{RowsDeleted: int64(n)}, nil
}
