package translate

import (
	"fmt"
	"sort"

	"ordxml/internal/core/dewey"
	"ordxml/internal/core/encoding"
	"ordxml/internal/core/xpath"
	"ordxml/internal/obs"
	"ordxml/internal/sqldb"
	"ordxml/internal/sqldb/sqltypes"
	"ordxml/internal/xmltree"
)

// binding is one SQL result row: the chain of matched step nodes plus the
// context node that anchored it.
type binding struct {
	steps []NodeRef
	ctxID int64
}

// runSegment executes one segment against the context set and returns the
// matched final-step nodes.
func (r *run) runSegment(doc int64, seg segment, ctx []NodeRef, first bool) ([]NodeRef, error) {
	if seg.steps[0].Axis == xpath.Ancestor {
		sp := obs.FromContext(r.ctx).StartChild("post")
		defer sp.End()
		return r.runAncestorSegment(doc, seg, ctx)
	}
	cs, err := r.buildChainSQL(doc, seg, first)
	if err != nil {
		return nil, err
	}
	if cs.anchor == anchorEmpty {
		return nil, nil
	}
	r.sqls = append(r.sqls, cs.sql)
	stmt, err := r.prepare(cs.sql)
	if err != nil {
		return nil, err
	}

	var bindings []binding
	runOnce := func(params []sqltypes.Value, ctxID int64) error {
		// One statement per context node: poll here so huge context sets
		// observe cancellation between statements.
		if err := r.poll(); err != nil {
			return err
		}
		res, err := r.exec(stmt, params)
		if err != nil {
			return err
		}
		for _, row := range res.Rows {
			b, err := decodeBinding(row, cs)
			if err != nil {
				return err
			}
			b.ctxID = ctxID
			bindings = append(bindings, b)
		}
		return nil
	}

	switch cs.anchor {
	case anchorRoot, anchorScan:
		if first || !seg.ancestryCheck {
			if err := runOnce(nil, 0); err != nil {
				return nil, err
			}
		} else {
			// Global/Local descendant: one tag scan, then client-side
			// ancestry filtering against the context set.
			if err := runOnce(nil, 0); err != nil {
				return nil, err
			}
			sp := obs.FromContext(r.ctx).StartChild("post")
			bindings, err = r.ancestryFilter(doc, bindings, ctx)
			sp.End()
			if err != nil {
				return nil, err
			}
		}
	case anchorChildOf:
		for _, c := range ctx {
			if c.Kind != xmltree.Element {
				continue
			}
			if err := runOnce([]sqltypes.Value{sqldb.I(c.ID)}, c.ID); err != nil {
				return nil, err
			}
		}
	case anchorParentOf:
		for _, c := range ctx {
			if c.Parent == 0 {
				continue
			}
			if err := runOnce([]sqltypes.Value{sqldb.I(c.Parent)}, c.ID); err != nil {
				return nil, err
			}
		}
	case anchorFollowing, anchorPreceding:
		for _, c := range ctx {
			if c.Parent == 0 || c.Kind == xmltree.Attr {
				continue
			}
			if err := runOnce([]sqltypes.Value{sqldb.I(c.Parent), c.Order}, c.ID); err != nil {
				return nil, err
			}
		}
	case anchorDeweyDesc:
		for _, c := range ctx {
			if c.Kind != xmltree.Element {
				continue
			}
			high, err := r.deweySuccessor(c.Order)
			if err != nil {
				return nil, err
			}
			if err := runOnce([]sqltypes.Value{c.Order, high}, c.ID); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("internal: unhandled anchor mode %d", cs.anchor)
	}

	lastStep := seg.steps[len(seg.steps)-1]
	if hasPosPred(lastStep) {
		sp := obs.FromContext(r.ctx).StartChild("post")
		bindings, err = r.applyPositional(doc, bindings, seg, lastStep)
		sp.End()
		if err != nil {
			return nil, err
		}
	}

	// Distinct final nodes, preserving first-seen order (the caller sorts
	// into document order at the end).
	seen := map[int64]bool{}
	var out []NodeRef
	for _, b := range bindings {
		final := b.steps[len(b.steps)-1]
		if !seen[final.ID] {
			seen[final.ID] = true
			out = append(out, final)
		}
	}
	return out, nil
}

// deweySuccessor computes the exclusive upper bound of a node's descendant
// range from its stored order key.
func (e *Evaluator) deweySuccessor(order sqltypes.Value) (sqltypes.Value, error) {
	if e.opts.DeweyAsText {
		p, err := dewey.ParsePadded(order.Text())
		if err != nil {
			return sqltypes.Value{}, err
		}
		return sqldb.S(p.PaddedPrefixSuccessor()), nil
	}
	p, err := dewey.FromBytes(order.Blob())
	if err != nil {
		return sqltypes.Value{}, err
	}
	succ := p.PrefixSuccessor()
	if succ == nil {
		return sqltypes.Value{}, fmt.Errorf("dewey path has no successor")
	}
	return sqldb.B(succ), nil
}

func decodeBinding(row sqltypes.Row, cs chainSQL) (binding, error) {
	b := binding{steps: make([]NodeRef, len(cs.stepCols))}
	for i, off := range cs.stepCols {
		ref := NodeRef{ID: row[off].Int(), Order: row[off+2]}
		if !row[off+1].IsNull() {
			ref.Parent = row[off+1].Int()
		}
		b.steps[i] = ref
	}
	final := &b.steps[len(b.steps)-1]
	kind, err := xmltree.ParseKind(row[cs.finalExt].Text())
	if err != nil {
		return binding{}, err
	}
	final.Kind = kind
	if !row[cs.finalExt+1].IsNull() {
		final.Tag = row[cs.finalExt+1].Text()
	}
	if !row[cs.finalExt+2].IsNull() {
		final.Value = row[cs.finalExt+2].Text()
	}
	return b, nil
}

// ancestryFilter keeps bindings whose first-step node properly descends from
// a context node, expanding a binding once per context ancestor (nested
// context nodes each get their own positional group, as in the oracle).
// Ancestry is verified by walking parent links with memoized point lookups.
func (r *run) ancestryFilter(doc int64, bindings []binding, ctx []NodeRef) ([]binding, error) {
	ctxSet := make(map[int64]bool, len(ctx))
	for _, c := range ctx {
		if c.Kind == xmltree.Element {
			ctxSet[c.ID] = true
		}
	}
	var out []binding
	for _, b := range bindings {
		id := b.steps[0].Parent
		for id != 0 {
			if ctxSet[id] {
				nb := b
				nb.ctxID = id
				out = append(out, nb)
			}
			info, err := r.parentOf(doc, id)
			if err != nil {
				return nil, err
			}
			if !info.known {
				return nil, fmt.Errorf("node %d missing during ancestry walk", id)
			}
			id = info.parent
		}
	}
	return out, nil
}

// applyPositional filters bindings by the final step's positional
// predicates, per context group, in axis order.
func (r *run) applyPositional(doc int64, bindings []binding, seg segment, step xpath.Step) ([]binding, error) {
	// Group key: the previous chain step's node, or the anchor context for
	// single-step segments.
	groupOf := func(b binding) int64 {
		if len(b.steps) > 1 {
			return b.steps[len(b.steps)-2].ID
		}
		return b.ctxID
	}
	type group struct {
		order []int64 // first-seen order of member ids
		refs  map[int64]NodeRef
	}
	groups := map[int64]*group{}
	var groupOrder []int64
	for _, b := range bindings {
		k := groupOf(b)
		g := groups[k]
		if g == nil {
			g = &group{refs: map[int64]NodeRef{}}
			groups[k] = g
			groupOrder = append(groupOrder, k)
		}
		final := b.steps[len(b.steps)-1]
		if _, dup := g.refs[final.ID]; !dup {
			g.refs[final.ID] = final
			g.order = append(g.order, final.ID)
		}
	}

	surviving := map[int64]map[int64]bool{} // group -> surviving final ids
	for _, gk := range groupOrder {
		g := groups[gk]
		members := make([]NodeRef, 0, len(g.order))
		for _, id := range g.order {
			members = append(members, g.refs[id])
		}
		if err := r.sortAxisOrder(doc, members, step.Axis); err != nil {
			return nil, err
		}
		for _, pred := range step.Preds {
			if pred.Kind != xpath.PredPos && pred.Kind != xpath.PredLast {
				continue
			}
			members = filterPositional(members, pred)
		}
		keep := map[int64]bool{}
		for _, m := range members {
			keep[m.ID] = true
		}
		surviving[gk] = keep
	}

	var out []binding
	for _, b := range bindings {
		final := b.steps[len(b.steps)-1]
		if surviving[groupOf(b)][final.ID] {
			out = append(out, b)
		}
	}
	return out, nil
}

// sortAxisOrder puts group members in axis order: document order, reversed
// for the reverse axes (preceding-sibling, ancestor).
func (r *run) sortAxisOrder(doc int64, members []NodeRef, axis xpath.Axis) error {
	if r.opts.Kind == encoding.Local && (axis == xpath.Descendant || axis == xpath.Ancestor) {
		// Members span multiple parents: materialize ancestor-chain keys.
		if err := r.sortDocOrder(doc, members); err != nil {
			return err
		}
	} else {
		// Same-parent groups (child/sibling/attribute) order by the order
		// key under every encoding; Global/Dewey order keys are global.
		sort.SliceStable(members, func(i, j int) bool {
			return sqltypes.Compare(members[i].Order, members[j].Order) < 0
		})
	}
	if axis == xpath.PrecedingSibling || axis == xpath.Ancestor {
		for i, j := 0, len(members)-1; i < j; i, j = i+1, j-1 {
			members[i], members[j] = members[j], members[i]
		}
	}
	return nil
}

// fetchNode loads one node's full NodeRef through the memoized point-lookup
// path.
func (r *run) fetchNode(doc, id int64) (NodeRef, bool, error) {
	if err := r.poll(); err != nil {
		return NodeRef{}, false, err
	}
	if ref, ok := r.nodeMemo[id]; ok {
		return ref, ref.ID != 0, nil
	}
	res, err := r.nodeStmt.QueryAtCtx(r.ctx, r.snap, sqldb.I(doc), sqldb.I(id))
	if err != nil {
		return NodeRef{}, false, err
	}
	if len(res.Rows) == 0 {
		r.nodeMemo[id] = NodeRef{}
		return NodeRef{}, false, nil
	}
	row := res.Rows[0]
	ref := NodeRef{ID: row[0].Int(), Order: row[2]}
	if !row[1].IsNull() {
		ref.Parent = row[1].Int()
	}
	kind, err := xmltree.ParseKind(row[3].Text())
	if err != nil {
		return NodeRef{}, false, err
	}
	ref.Kind = kind
	if !row[4].IsNull() {
		ref.Tag = row[4].Text()
	}
	if !row[5].IsNull() {
		ref.Value = row[5].Text()
	}
	r.nodeMemo[id] = ref
	return ref, true, nil
}

// runAncestorSegment evaluates an ancestor step by walking parent links from
// each context node. (Under Dewey the ancestors are exactly the prefixes of
// the context path, but each still needs its row for the node test, so the
// walk costs the same point lookups under every encoding.)
func (r *run) runAncestorSegment(doc int64, seg segment, ctx []NodeRef) ([]NodeRef, error) {
	step := seg.steps[0]
	var bindings []binding
	for _, c := range ctx {
		id := c.Parent
		for id != 0 {
			ref, ok, err := r.fetchNode(doc, id)
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("node %d missing during ancestor walk", id)
			}
			if matchAncestorTest(ref, step.Test) {
				bindings = append(bindings, binding{steps: []NodeRef{ref}, ctxID: c.ID})
			}
			id = ref.Parent
		}
	}
	var err error
	if hasPosPred(step) {
		bindings, err = r.applyPositional(doc, bindings, seg, step)
		if err != nil {
			return nil, err
		}
	}
	seen := map[int64]bool{}
	var out []NodeRef
	for _, b := range bindings {
		final := b.steps[0]
		if !seen[final.ID] {
			seen[final.ID] = true
			out = append(out, final)
		}
	}
	return out, nil
}

// matchAncestorTest applies an element node test (ancestors are always
// elements; text() never matches).
func matchAncestorTest(ref NodeRef, t xpath.NodeTest) bool {
	if ref.Kind != xmltree.Element || t.TextTest {
		return false
	}
	return t.Any || ref.Tag == t.Name
}

func filterPositional(members []NodeRef, pred xpath.Predicate) []NodeRef {
	out := members[:0:0]
	for i, m := range members {
		pos := i + 1
		keep := false
		if pred.Kind == xpath.PredLast {
			keep = pos == len(members)
		} else {
			switch pred.Op {
			case xpath.CmpEq:
				keep = pos == pred.Pos
			case xpath.CmpNe:
				keep = pos != pred.Pos
			case xpath.CmpLt:
				keep = pos < pred.Pos
			case xpath.CmpLe:
				keep = pos <= pred.Pos
			case xpath.CmpGt:
				keep = pos > pred.Pos
			case xpath.CmpGe:
				keep = pos >= pred.Pos
			}
		}
		if keep {
			out = append(out, m)
		}
	}
	return out
}
