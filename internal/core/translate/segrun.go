package translate

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"ordxml/internal/core/encoding"
	"ordxml/internal/core/xpath"
	"ordxml/internal/obs"
	"ordxml/internal/sqldb"
	"ordxml/internal/sqldb/sqltypes"
	"ordxml/internal/xmltree"
)

// binding is one match of a segment's final step, with the node it was
// reached from: positional predicates count within each group.
type binding struct {
	group int64
	node  NodeRef
}

// runSegment evaluates one segment against the whole context set — one
// statement joining the context relation to the node table, plus, where the
// encoding needs them, the level-wise statements of intervalRows and
// loadChains — and returns the matched final-step nodes.
func (r *run) runSegment(doc int64, seg segment, ctx []NodeRef) ([]NodeRef, error) {
	var bindings []binding
	var err error
	if seg.steps[0].Axis == xpath.Ancestor {
		bindings, err = r.ancestorBindings(doc, seg.steps[0].Test, ctx)
	} else {
		bindings, err = r.chainBindings(doc, seg, ctx)
	}
	if err != nil {
		return nil, err
	}
	if lastStep := seg.steps[len(seg.steps)-1]; hasPosPred(lastStep) {
		sp := obs.FromContext(r.ctx).StartChild("positional")
		bindings, err = r.applyPositional(doc, bindings, lastStep)
		sp.End()
		if err != nil {
			return nil, err
		}
	}

	// Distinct final nodes, preserving first-seen order: the statement's
	// order, which is document order on a final Global or Dewey chain (see
	// buildChainSQL) and is re-sorted by whoever reads the set otherwise.
	seen := make(map[int64]bool, len(bindings))
	var out []NodeRef
	for _, b := range bindings {
		if err := r.poll(); err != nil {
			return nil, err
		}
		if !seen[b.node.ID] {
			seen[b.node.ID] = true
			out = append(out, b.node)
		}
	}
	return out, nil
}

// chainBindings compiles the segment's steps into one SELECT and runs it
// with the context set bound as its relation parameter.
func (r *run) chainBindings(doc int64, seg segment, ctx []NodeRef) ([]binding, error) {
	cs, err := r.buildChainSQL(doc, seg)
	if err != nil || cs.anchor == anchorEmpty {
		return nil, err
	}
	var rel relation
	switch cs.anchor {
	case anchorRoot, anchorScan:
	case anchorInterval:
		// A nested context node's interval lies inside its ancestor's: only a
		// positional predicate, which counts per context node, needs both.
		rel, err = r.intervalRows(doc, ctx, hasPosPred(seg.steps[0]))
	default:
		rel, err = r.nodeRows(cs.anchor, ctx)
	}
	if err != nil {
		return nil, err
	}
	var bindings []binding
	err = r.each(cs.sql, rel, func(row sqltypes.Row) error {
		var b binding
		if cs.grouped {
			b.group, row = row[0].Int(), row[1:]
		}
		var err error
		if b.node, err = DecodeNode(row); err != nil {
			return err
		}
		bindings = append(bindings, b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if seg.ancestryCheck {
		return r.underContext(doc, bindings, ctx)
	}
	return bindings, nil
}

// relation builds the binding of a statement's relation parameter: its rows'
// storage encodings, back to back. A nil relation binds nothing (a statement
// without the parameter).
type relation []byte

func (rel *relation) add(vals ...sqltypes.Value) { *rel = sqltypes.EncodeRow(*rel, vals) }

// idRows is the one-column relation of the distinct ids given, and their
// number, in the order of the (doc, id) index the join probes.
func idRows(ids []int64) (relation, int) {
	slices.Sort(ids)
	ids = slices.Compact(ids)
	rel := relation{}
	for _, id := range ids {
		rel.add(sqldb.I(id))
	}
	return rel, len(ids)
}

// nodeRows renders the context nodes an axis can start from as the
// (id, parent, ord) rows of the context relation, in the order of the index
// key the join probes with. It sorts ctx in place: the context set has no
// order of its own.
func (r *run) nodeRows(anchor anchorMode, ctx []NodeRef) (relation, error) {
	if anchor == anchorChildOf {
		slices.SortFunc(ctx, func(a, b NodeRef) int { return cmp.Compare(a.ID, b.ID) })
	} else {
		slices.SortFunc(ctx, func(a, b NodeRef) int { return cmp.Compare(a.Parent, b.Parent) })
	}
	rel := relation{}
	for _, c := range ctx {
		if err := r.poll(); err != nil {
			return nil, err
		}
		switch {
		case anchor == anchorChildOf && c.Kind != xmltree.Element,
			anchor != anchorChildOf && c.Parent == 0,
			(anchor == anchorFollowing || anchor == anchorPreceding) && c.Kind == xmltree.Attr:
			continue
		}
		rel.add(sqldb.I(c.ID), sqldb.I(c.Parent), c.Order)
	}
	return rel, nil
}

// intervalRows renders the element context nodes as (id, ord, hi) rows: the
// open order-key interval that holds exactly the node's descendants, in key
// order (ctx is sorted in place). Unless nested is set, intervals inside an
// earlier one are dropped — their nodes are found through the enclosing
// context node already.
func (r *run) intervalRows(doc int64, ctx []NodeRef, nested bool) (relation, error) {
	elems := slices.DeleteFunc(ctx, func(c NodeRef) bool { return c.Kind != xmltree.Element })
	slices.SortFunc(elems, func(a, b NodeRef) int { return sqltypes.Compare(a.Order, b.Order) })
	var his []sqltypes.Value
	var err error
	if r.opts.Kind == encoding.Dewey {
		his = make([]sqltypes.Value, len(elems))
		for i, c := range elems {
			if his[i], err = DeweySuccessor(r.opts, c.Order); err != nil {
				return nil, err
			}
		}
	} else if his, err = r.globalBounds(doc, elems); err != nil {
		return nil, err
	}
	rel := relation{}
	var end sqltypes.Value // upper bound of the last interval kept
	for i, c := range elems {
		if err := r.poll(); err != nil {
			return nil, err
		}
		if !nested && len(rel) > 0 && sqltypes.Compare(c.Order, end) < 0 {
			continue
		}
		rel.add(sqldb.I(c.ID), c.Order, his[i])
		end = his[i]
	}
	return rel, nil
}

// globalBounds returns, per element, the gorder of the first node past its
// subtree: that of its next following sibling, or of the nearest ancestor's
// that has one (MaxInt64 when nothing follows). Each round asks, in one
// statement, for the later siblings under every distinct parent still in
// play; elements that turn out to be last children move up one level through
// the chain table.
func (r *run) globalBounds(doc int64, elems []NodeRef) ([]sqltypes.Value, error) {
	sql := fmt.Sprintf("SELECT n.parent, n.%[1]s FROM %[2]s, %[3]s n WHERE n.doc = %[4]d AND n.parent = c.id AND n.%[1]s > c.ord",
		r.ord, ctxNodeCols, r.tbl, doc)
	his := make([]sqltypes.Value, len(elems))
	// cur[i] is the node whose following sibling bounds elems[i]: the element
	// itself, then its ancestors. open lists the elements still unbounded.
	cur := make([]link, len(elems))
	open := make([]int, len(elems))
	for i, e := range elems {
		cur[i], open[i] = link{parent: e.Parent, ord: e.Order.Int()}, i
	}
	for len(open) > 0 {
		// One probe per distinct parent, from the smallest key waiting there.
		from := map[int64]int64{}
		for _, i := range open {
			if err := r.poll(); err != nil {
				return nil, err
			}
			p, ord := cur[i].parent, cur[i].ord
			if least, ok := from[p]; p != 0 && (!ok || ord < least) {
				from[p] = ord
			}
		}
		parents := make([]int64, 0, len(from))
		for p := range from {
			parents = append(parents, p)
		}
		slices.Sort(parents)
		rel := relation{}
		for _, p := range parents {
			rel.add(sqldb.I(p), sqldb.Null(), sqldb.I(from[p]))
		}
		later := make(map[int64][]int64, len(parents))
		err := r.each(sql, rel, func(row sqltypes.Row) error {
			later[row[0].Int()] = append(later[row[0].Int()], row[1].Int())
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, s := range later {
			slices.Sort(s) // the statement has no ORDER BY; the search below needs one
		}
		rest := open[:0]
		for _, i := range open {
			if err := r.poll(); err != nil {
				return nil, err
			}
			if cur[i].parent == 0 {
				his[i] = sqldb.I(math.MaxInt64)
				continue
			}
			s, ord := later[cur[i].parent], cur[i].ord
			if k := sort.Search(len(s), func(k int) bool { return s[k] > ord }); k < len(s) {
				his[i] = sqldb.I(s[k])
			} else {
				rest = append(rest, i)
			}
		}
		open = rest
		if err := r.loadChains(doc, len(open), func(k int) int64 { return cur[open[k]].parent }); err != nil {
			return nil, err
		}
		for _, i := range open {
			cur[i] = r.chain[cur[i].parent]
		}
	}
	return his, nil
}

// DeweySuccessor computes the exclusive upper bound of a Dewey node's
// descendant range from its stored order key.
func DeweySuccessor(opts encoding.Options, order sqltypes.Value) (sqltypes.Value, error) {
	p, err := opts.DeweyPath(order)
	if err != nil {
		return sqltypes.Value{}, err
	}
	return opts.DeweyUpper(p)
}

// DecodeNode reads one node from the six columns of a node row selected as
// id, parent, order key, kind, tag, value (see Evaluator.nodeCols). Its
// strings and order key do not alias row, so a cursor may reuse it.
func DecodeNode(row sqltypes.Row) (NodeRef, error) {
	ref := NodeRef{ID: row[0].Int(), Order: row[2]}
	if !row[1].IsNull() {
		ref.Parent = row[1].Int()
	}
	kind, err := xmltree.ParseKind(row[3].Text())
	if err != nil {
		return NodeRef{}, err
	}
	ref.Kind = kind
	if !row[4].IsNull() {
		ref.Tag = row[4].Text()
	}
	if !row[5].IsNull() {
		ref.Value = row[5].Text()
	}
	return ref, nil
}

// link is one chain-table entry: a node's parent id and, for the integer
// order encodings, its order key.
type link struct{ parent, ord int64 }

// loadChains completes the chain table — the parent link of every fetched
// node, by id — with all ancestors of n nodes, given their parent ids: one
// join statement per tree level, over the distinct parent ids of that level's
// nodes that the table lacks. The ancestry test, the ancestor axis, Local's
// document-order sort and globalBounds then follow parent links in memory.
func (r *run) loadChains(doc int64, n int, parent func(i int) int64) error {
	var frontier []int64
	want := func(id int64) {
		if _, ok := r.chain[id]; id != 0 && !ok {
			frontier = append(frontier, id)
		}
	}
	for i := 0; i < n; i++ {
		if err := r.poll(); err != nil {
			return err
		}
		want(parent(i))
	}
	if len(frontier) == 0 {
		return nil // the usual case once a query's first node set has loaded its chains
	}
	sql := fmt.Sprintf("SELECT n.id, n.parent, n.%s FROM ? c (id), %s n WHERE n.doc = %d AND n.id = c.id",
		r.ord, r.tbl, doc)
	for len(frontier) > 0 {
		rel, asked := idRows(frontier)
		frontier = frontier[:0]
		err := r.each(sql, rel, func(row sqltypes.Row) error {
			var l link
			if !row[1].IsNull() {
				l.parent = row[1].Int()
			}
			if row[2].Type() == sqltypes.Int {
				l.ord = row[2].Int()
			}
			r.chain[row[0].Int()] = l
			asked--
			want(l.parent)
			return nil
		})
		if err != nil {
			return err
		}
		if asked != 0 {
			return fmt.Errorf("%d parent nodes missing while loading ancestor chains", asked)
		}
	}
	return nil
}

// underContext keeps the bindings of a Local descendant scan whose node
// properly descends from a context node, once per context ancestor (nested
// context nodes each get their own positional group, as in the oracle).
func (r *run) underContext(doc int64, bindings []binding, ctx []NodeRef) ([]binding, error) {
	sp := obs.FromContext(r.ctx).StartChild("ancestry")
	defer sp.End()
	err := r.loadChains(doc, len(bindings), func(i int) int64 { return bindings[i].node.Parent })
	if err != nil {
		return nil, err
	}
	inCtx := make(map[int64]bool, len(ctx))
	for _, c := range ctx {
		inCtx[c.ID] = c.Kind == xmltree.Element
	}
	var out []binding
	for _, b := range bindings {
		if err := r.poll(); err != nil {
			return nil, err
		}
		for id := b.node.Parent; id != 0; id = r.chain[id].parent {
			if inCtx[id] {
				out = append(out, binding{group: id, node: b.node})
			}
		}
	}
	return out, nil
}

// ancestorBindings evaluates an ancestor step: the chain table names each
// context node's ancestors, and one statement fetches those that pass the
// node test. (Under Dewey the ancestors are exactly the prefixes of the
// context path, but each still needs its row for the node test, so every
// encoding reads the same chains.)
func (r *run) ancestorBindings(doc int64, test xpath.NodeTest, ctx []NodeRef) ([]binding, error) {
	sp := obs.FromContext(r.ctx).StartChild("ancestry")
	defer sp.End()
	if err := r.loadChains(doc, len(ctx), func(i int) int64 { return ctx[i].Parent }); err != nil {
		return nil, err
	}
	var ids []int64
	for _, c := range ctx {
		for id := c.Parent; id != 0; id = r.chain[id].parent {
			ids = append(ids, id)
		}
	}
	rel, _ := idRows(ids)
	b := &chainBuilder{ev: r.Evaluator, doc: doc}
	b.testConds(b.addNodeAlias(), xpath.Ancestor, test)
	matched := map[int64]NodeRef{}
	err := r.each(fmt.Sprintf("SELECT %s FROM ? c (id), %s WHERE n1.id = c.id AND %s",
		r.nodeCols("n1"), b.from[0], strings.Join(b.where, " AND ")), rel, func(row sqltypes.Row) error {
		a, err := DecodeNode(row)
		matched[a.ID] = a
		return err
	})
	if err != nil {
		return nil, err
	}
	var out []binding
	for _, c := range ctx {
		if err := r.poll(); err != nil {
			return nil, err
		}
		for id := c.Parent; id != 0; id = r.chain[id].parent {
			if a, ok := matched[id]; ok {
				out = append(out, binding{group: c.ID, node: a})
			}
		}
	}
	return out, nil
}

// applyPositional filters bindings by the final step's positional
// predicates, per group, in axis order.
func (r *run) applyPositional(doc int64, bindings []binding, step xpath.Step) ([]binding, error) {
	groups := map[int64][]NodeRef{}
	member := make(map[[2]int64]bool, len(bindings)) // (group, node id): seen, then kept
	for _, b := range bindings {
		if k := [2]int64{b.group, b.node.ID}; !member[k] {
			member[k] = true
			groups[b.group] = append(groups[b.group], b.node)
		}
	}
	crossParent := step.Axis == xpath.Descendant || step.Axis == xpath.Ancestor
	if crossParent && r.opts.Kind == encoding.Local {
		// Members span several parents: document order needs their chains,
		// fetched once for all groups.
		err := r.loadChains(doc, len(bindings), func(i int) int64 { return bindings[i].node.Parent })
		if err != nil {
			return nil, err
		}
	}
	clear(member)
	for g, members := range groups {
		if crossParent {
			if err := r.sortDocOrder(doc, members); err != nil {
				return nil, err
			}
		} else {
			// Same-parent groups (child/sibling/attribute) order by the order
			// key under every encoding.
			sort.SliceStable(members, func(i, j int) bool {
				return sqltypes.Compare(members[i].Order, members[j].Order) < 0
			})
		}
		if step.Axis == xpath.PrecedingSibling || step.Axis == xpath.Ancestor {
			slices.Reverse(members) // reverse axes count away from the context node
		}
		for _, pred := range step.Preds {
			if pred.Kind == xpath.PredPos || pred.Kind == xpath.PredLast {
				members = filterPositional(members, pred)
			}
		}
		for _, m := range members {
			member[[2]int64{g, m.ID}] = true
		}
	}

	var out []binding
	for _, b := range bindings {
		if member[[2]int64{b.group, b.node.ID}] {
			out = append(out, b)
		}
	}
	return out, nil
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
