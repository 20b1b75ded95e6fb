package translate

import (
	"fmt"
	"strings"

	"ordxml/internal/core/encoding"
	"ordxml/internal/core/xpath"
	"ordxml/internal/sqldb/sqltypes"
)

// anchorMode describes how a segment's first step binds to the incoming
// context. The context-bound modes join the node table to the context set,
// which the statement reads as the relation parameter `? c (...)`.
type anchorMode int

const (
	anchorRoot      anchorMode = iota // document root: parent IS NULL
	anchorScan                        // no structural condition (tag scan)
	anchorChildOf                     // parent = c.id
	anchorParentOf                    // id = c.parent
	anchorFollowing                   // parent = c.parent AND ord > c.ord
	anchorPreceding                   // parent = c.parent AND ord < c.ord
	anchorInterval                    // ord > c.ord AND ord < c.hi (descendants)
	anchorEmpty                       // statically empty (e.g. sibling of root)
)

// Column lists of the context relation: the node triple, or one order-key
// interval per context node (see run.intervalRows).
const (
	ctxNodeCols     = "? c (id, parent, ord)"
	ctxIntervalCols = "? c (id, ord, hi)"
)

// chainSQL is a compiled segment. Its rows are the final step's id, parent,
// order key, kind, tag and value, preceded — when grouped, as a final step
// with positional predicates is — by the id of the node that step was reached
// from: the previous step's node, or the context node for a one-step segment.
type chainSQL struct {
	sql     string
	anchor  anchorMode
	grouped bool
}

// buildChainSQL compiles a segment into one SELECT.
func (e *Evaluator) buildChainSQL(doc int64, seg segment) (chainSQL, error) {
	b := &chainBuilder{ev: e, doc: doc}
	out := chainSQL{}
	group := ""
	// steps are the step aliases, n1 to nk; chained reports that ordering by
	// their order keys in turn is document order of nk (see below).
	var steps []string
	chained := false

	for i, s := range seg.steps {
		alias := b.addNodeAlias()
		if i == 0 {
			mode, err := b.anchorConds(alias, s, seg.first, seg.ancestryCheck)
			if err != nil {
				return chainSQL{}, err
			}
			out.anchor = mode
			chained = mode == anchorRoot
			switch mode {
			case anchorEmpty:
				return out, nil
			case anchorRoot, anchorScan:
			case anchorInterval:
				b.from, group = []string{ctxIntervalCols, b.from[0]}, "c"
			default:
				b.from, group = []string{ctxNodeCols, b.from[0]}, "c"
			}
		} else {
			b.stepConds(alias, b.prevAlias, s)
			group = b.prevAlias
			chained = chained && (s.Axis == xpath.Child || s.Axis == xpath.Attribute ||
				s.Axis == xpath.Descendant && i == len(seg.steps)-1)
		}
		steps = append(steps, alias)
		b.testConds(alias, s.Axis, s.Test)
		for _, pred := range s.Preds {
			if pred.Kind == xpath.PredValue || pred.Kind == xpath.PredExists {
				selfLeaf := s.Axis == xpath.Attribute || s.Test.TextTest
				if err := b.predConds(alias, pred, selfLeaf); err != nil {
					return chainSQL{}, err
				}
			}
		}
		b.prevAlias = alias
	}
	final := b.prevAlias

	var sb strings.Builder
	sb.WriteString("SELECT ")
	if out.grouped = group != "" && hasPosPred(seg.steps[len(seg.steps)-1]); out.grouped {
		sb.WriteString(group + ".id, ")
	}
	sb.WriteString(e.nodeCols(final))
	sb.WriteString(" FROM ")
	sb.WriteString(strings.Join(b.from, ", "))
	sb.WriteString(" WHERE ")
	sb.WriteString(strings.Join(b.where, " AND "))
	// Only the final segment's order matters: the next segment re-sorts its
	// context set into index-key order anyway. Local has no document-order
	// column; evalPath sorts its result. Under Global and Dewey the final
	// statement's ORDER BY is the query's result order, and every order key
	// is a document-order key, so ordering by nk alone is document order.
	//
	// A chain from the root whose later steps are child or attribute steps
	// orders by n1, ..., nk instead, which the planner can deliver straight
	// from the join's index probes. It is the same order: the nodes of each
	// step are all at one depth, so their subtrees are disjoint and each
	// node's children follow it, and precede its next sibling's, in document
	// order. A last Dewey descendant step keeps that, for the same reason.
	// A child step below a descendant step would not: with a match a nested
	// in a match a', the key order puts every child of a' first, even one
	// that follows a, and so a's children, in document order.
	if seg.last && e.opts.Kind != encoding.Local {
		if !chained {
			steps = steps[len(steps)-1:]
		}
		for i, a := range steps {
			steps[i] = a + "." + e.ord
		}
		sb.WriteString(" ORDER BY " + strings.Join(steps, ", "))
	}
	out.sql = sb.String()
	return out, nil
}

// nodeCols is the select list DecodeNode reads: one node's full row.
func (e *Evaluator) nodeCols(alias string) string {
	return fmt.Sprintf("%[1]s.id, %[1]s.parent, %[1]s.%[2]s, %[1]s.kind, %[1]s.tag, %[1]s.value", alias, e.ord)
}

type chainBuilder struct {
	ev        *Evaluator
	doc       int64
	nAlias    int
	prevAlias string
	from      []string
	where     []string
}

func (b *chainBuilder) addNodeAlias() string {
	b.nAlias++
	alias := fmt.Sprintf("n%d", b.nAlias)
	b.from = append(b.from, b.ev.tbl+" "+alias)
	b.where = append(b.where, fmt.Sprintf("%s.doc = %d", alias, b.doc))
	return alias
}

// anchorConds emits the first step's binding conditions.
func (b *chainBuilder) anchorConds(alias string, s xpath.Step, first, ancestry bool) (anchorMode, error) {
	ord := b.ev.ord
	if first {
		switch s.Axis {
		case xpath.Child:
			b.where = append(b.where, alias+".parent IS NULL")
			return anchorRoot, nil
		case xpath.Attribute:
			// Attributes of the virtual document node: none.
			return anchorEmpty, nil
		case xpath.Descendant:
			// Every node descends from the virtual document node.
			return anchorScan, nil
		default:
			// Siblings/parent of the virtual document node: none.
			return anchorEmpty, nil
		}
	}
	switch s.Axis {
	case xpath.Child, xpath.Attribute:
		b.where = append(b.where, alias+".parent = c.id")
		return anchorChildOf, nil
	case xpath.Parent:
		b.where = append(b.where, alias+".id = c.parent")
		return anchorParentOf, nil
	case xpath.FollowingSibling:
		b.where = append(b.where, alias+".parent = c.parent", alias+"."+ord+" > c.ord")
		return anchorFollowing, nil
	case xpath.PrecedingSibling:
		b.where = append(b.where, alias+".parent = c.parent", alias+"."+ord+" < c.ord")
		return anchorPreceding, nil
	case xpath.Descendant:
		if ancestry {
			// Local: scan by node test, ancestry is verified afterwards.
			return anchorScan, nil
		}
		b.where = append(b.where, alias+"."+ord+" > c.ord", alias+"."+ord+" < c.hi")
		return anchorInterval, nil
	default:
		return 0, fmt.Errorf("internal: bad anchor axis %s", s.Axis)
	}
}

// stepConds emits the structural join between consecutive chain steps.
func (b *chainBuilder) stepConds(alias, prev string, s xpath.Step) {
	ord := b.ev.ord
	switch s.Axis {
	case xpath.Child, xpath.Attribute:
		b.where = append(b.where, fmt.Sprintf("%s.parent = %s.id", alias, prev))
	case xpath.Parent:
		b.where = append(b.where, fmt.Sprintf("%s.id = %s.parent", alias, prev))
	case xpath.FollowingSibling:
		b.where = append(b.where,
			fmt.Sprintf("%s.parent = %s.parent", alias, prev),
			fmt.Sprintf("%s.%s > %s.%s", alias, ord, prev, ord))
	case xpath.PrecedingSibling:
		b.where = append(b.where,
			fmt.Sprintf("%s.parent = %s.parent", alias, prev),
			fmt.Sprintf("%s.%s < %s.%s", alias, ord, prev, ord))
	case xpath.Descendant:
		// Only reachable under Dewey (splitSegments isolates the rest).
		b.where = append(b.where,
			fmt.Sprintf("%s.%s > %s.%s", alias, ord, prev, ord),
			fmt.Sprintf("%s.%s < PREFIX_SUCC(%s.%s)", alias, ord, prev, ord))
	}
}

// testConds emits node-test conditions.
func (b *chainBuilder) testConds(alias string, axis xpath.Axis, t xpath.NodeTest) {
	kind := "elem"
	if axis == xpath.Attribute {
		kind = "attr"
	} else if t.TextTest {
		kind = "text"
	}
	b.where = append(b.where, fmt.Sprintf("%s.kind = '%s'", alias, kind))
	if !t.Any && !t.TextTest {
		b.where = append(b.where, fmt.Sprintf("%s.tag = %s", alias, sqlString(t.Name)))
	}
}

// predConds emits the joins implementing a value or existence predicate.
// Value comparison against an element compares a text child, matching the
// oracle for simple-content elements (the standard shredding assumption).
// ctxIsLeaf reports that the context node itself is an attribute or text
// node, whose value column is compared directly for a '.' predicate.
func (b *chainBuilder) predConds(ctxAlias string, p xpath.Predicate, ctxIsLeaf bool) error {
	cur := ctxAlias
	curIsAttrOrText := ctxIsLeaf
	if p.Path != nil {
		for _, ps := range p.Path.Steps {
			alias := b.addNodeAlias()
			b.where = append(b.where, fmt.Sprintf("%s.parent = %s.id", alias, cur))
			b.testConds(alias, ps.Axis, ps.Test)
			cur = alias
			curIsAttrOrText = ps.Axis == xpath.Attribute || ps.Test.TextTest
		}
	}
	if p.Kind == xpath.PredExists {
		return nil
	}
	op := "="
	if p.ValOp == xpath.CmpNe {
		op = "<>"
	}
	if curIsAttrOrText {
		b.where = append(b.where, fmt.Sprintf("%s.value %s %s", cur, op, sqlString(p.Value)))
		return nil
	}
	// Element (or '.') comparison: join its text child.
	alias := b.addNodeAlias()
	b.where = append(b.where,
		fmt.Sprintf("%s.parent = %s.id", alias, cur),
		fmt.Sprintf("%s.kind = 'text'", alias),
		fmt.Sprintf("%s.value %s %s", alias, op, sqlString(p.Value)))
	return nil
}

func sqlString(s string) string {
	return sqltypes.NewText(s).SQLLiteral()
}
