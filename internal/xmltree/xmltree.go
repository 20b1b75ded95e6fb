// Package xmltree provides the ordered XML document model used on both sides
// of the relational mapping: one stream of document-order events (Handler)
// with one producer from XML text (Scan) and two consumers, a tree builder
// (Builder) and an XML writer (Writer). The shredder consumes the same
// events and the publisher produces them, so neither needs a tree. The tree
// (Node) is a deliberately small DOM: elements, attributes and text, with
// document order preserved everywhere.
package xmltree

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Kind classifies a node.
type Kind uint8

// Node kinds. Attributes are modelled as nodes so the relational mapping can
// treat them as rows, matching the paper's shredding.
const (
	Element Kind = iota
	Attr
	Text
)

// String returns the kind name used in the relational `kind` column.
func (k Kind) String() string {
	switch k {
	case Element:
		return "elem"
	case Attr:
		return "attr"
	case Text:
		return "text"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind is the inverse of Kind.String.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "elem":
		return Element, nil
	case "attr":
		return Attr, nil
	case "text":
		return Text, nil
	default:
		return 0, fmt.Errorf("unknown node kind %q", s)
	}
}

// Node is one node of an ordered XML tree.
type Node struct {
	Kind Kind
	// Tag is the element tag or attribute name; empty for text nodes.
	Tag string
	// Value is the attribute value or text content; empty for elements.
	Value string
	// Attrs are attribute nodes in source order (elements only).
	Attrs []*Node
	// Children are element and text children in document order.
	Children []*Node
	// Parent is nil for the root.
	Parent *Node
}

// NewElement returns an element node.
func NewElement(tag string) *Node { return &Node{Kind: Element, Tag: tag} }

// NewText returns a text node.
func NewText(value string) *Node { return &Node{Kind: Text, Value: value} }

// NewAttr returns an attribute node.
func NewAttr(name, value string) *Node { return &Node{Kind: Attr, Tag: name, Value: value} }

// AddChild appends c to n's children and sets its parent.
func (n *Node) AddChild(c *Node) *Node {
	c.Parent = n
	n.Children = append(n.Children, c)
	return c
}

// AddAttr appends an attribute to n.
func (n *Node) AddAttr(name, value string) *Node {
	a := NewAttr(name, value)
	a.Parent = n
	n.Attrs = append(n.Attrs, a)
	return a
}

// SetAttr adds or replaces an attribute value.
func (n *Node) SetAttr(name, value string) {
	for _, a := range n.Attrs {
		if a.Tag == name {
			a.Value = value
			return
		}
	}
	n.AddAttr(name, value)
}

// GetAttr returns the value of the named attribute.
func (n *Node) GetAttr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Tag == name {
			return a.Value, true
		}
	}
	return "", false
}

// Size returns the number of nodes in the subtree, counting n, attributes
// and text nodes — the row count the subtree shreds into.
func (n *Node) Size() int {
	count := 1 + len(n.Attrs)
	for _, c := range n.Children {
		count += c.Size()
	}
	return count
}

// TextContent concatenates all descendant text, XPath string-value style.
func (n *Node) TextContent() string {
	switch n.Kind {
	case Text, Attr:
		return n.Value
	}
	var sb strings.Builder
	var walk func(*Node)
	walk = func(m *Node) {
		if m.Kind == Text {
			sb.WriteString(m.Value)
			return
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return sb.String()
}

// ChildIndex returns n's position among its parent's children (0-based), or
// -1 for roots and attributes.
func (n *Node) ChildIndex() int {
	if n.Parent == nil || n.Kind == Attr {
		return -1
	}
	for i, c := range n.Parent.Children {
		if c == n {
			return i
		}
	}
	return -1
}

// Walk visits the subtree in document order: node, attributes, then
// children. It stops early when fn returns false.
func (n *Node) Walk(fn func(*Node) bool) bool {
	if !fn(n) {
		return false
	}
	for _, a := range n.Attrs {
		if !fn(a) {
			return false
		}
	}
	for _, c := range n.Children {
		if !c.Walk(fn) {
			return false
		}
	}
	return true
}

// Equal compares two trees structurally: kind, tag, value, attributes (in
// order) and children (in order).
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Tag != b.Tag || a.Value != b.Value {
		return false
	}
	if len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i].Tag != b.Attrs[i].Tag || a.Attrs[i].Value != b.Attrs[i].Value {
			return false
		}
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// Clone deep-copies the subtree. The clone's parent is nil.
func (n *Node) Clone() *Node {
	c := &Node{Kind: n.Kind, Tag: n.Tag, Value: n.Value}
	for _, a := range n.Attrs {
		c.AddAttr(a.Tag, a.Value)
	}
	for _, ch := range n.Children {
		c.AddChild(ch.Clone())
	}
	return c
}

// ParseOptions control parsing.
type ParseOptions struct {
	// KeepWhitespaceText retains text nodes that are entirely whitespace.
	// The default (false) drops them, matching how the paper's documents
	// were loaded (ignorable whitespace is not data).
	KeepWhitespaceText bool
}

// Parse reads one XML document and returns its root element.
func Parse(r io.Reader) (*Node, error) {
	return ParseWith(r, ParseOptions{})
}

// ParseString parses a document held in a string.
func ParseString(s string) (*Node, error) {
	return Parse(strings.NewReader(s))
}

// Handler receives one document's nodes as events in document order: an
// element's Start, then its attributes, then its children's events, then its
// End. Scan produces events from XML text, Node.Emit from a tree, and the
// publisher from stored rows; a Builder turns them into a tree, a Writer
// into XML text, and the shredder into node rows. A non-nil error from a
// method stops the producer, which returns that error.
type Handler interface {
	Start(tag string) error
	Attr(name, value string) error
	Text(value string) error
	End(tag string) error
}

// Scan reads one XML document from r and hands its nodes to h in document
// order. Namespace declarations, comments, processing instructions and
// directives are not data, and neither is text outside the root element;
// text that is entirely whitespace is dropped unless opts keep it. As in
// XPath's data model, a text node never has a text sibling next to it: all
// character data between two tags — CDATA sections and text that a comment
// or processing instruction splits among them — is one text node, and the
// whitespace rule applies to the whole of it.
func Scan(r io.Reader, opts ParseOptions, h Handler) error {
	dec := xml.NewDecoder(r)
	var open []string // the open elements' tags, innermost last
	root := false
	var names localNames
	// text gathers the character data since the last tag; the buffer is
	// reused, so only a text node that is kept costs a string.
	var text []byte
	flush := func() error {
		if len(text) == 0 {
			return nil
		}
		keep := opts.KeepWhitespaceText || len(bytes.TrimSpace(text)) > 0
		s := text
		text = text[:0]
		if !keep {
			return nil
		}
		return h.Text(string(s))
	}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("xml parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if err := flush(); err != nil {
				return err
			}
			if len(open) == 0 {
				if root {
					return fmt.Errorf("xml parse: multiple root elements")
				}
				root = true
			}
			if !names.ok(t.Name) {
				return fmt.Errorf("xml parse: element %s:%s: the name after the prefix is not a name", t.Name.Space, t.Name.Local)
			}
			if err := h.Start(t.Name.Local); err != nil {
				return err
			}
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue // namespace declarations are not data
				}
				if !names.ok(a.Name) {
					return fmt.Errorf("xml parse: attribute %s:%s: the name after the prefix is not a name", a.Name.Space, a.Name.Local)
				}
				if err := h.Attr(a.Name.Local, a.Value); err != nil {
					return err
				}
			}
			open = append(open, t.Name.Local)
		case xml.EndElement:
			if len(open) == 0 {
				return fmt.Errorf("xml parse: unbalanced end element %s", t.Name.Local)
			}
			if err := flush(); err != nil {
				return err
			}
			tag := open[len(open)-1]
			open = open[:len(open)-1]
			if err := h.End(tag); err != nil {
				return err
			}
		case xml.CharData:
			if len(open) == 0 {
				continue // whitespace outside the root
			}
			text = append(text, t...)
		case xml.Comment, xml.ProcInst, xml.Directive:
			// Not part of the data model, and no boundary between texts.
		}
	}
	if !root {
		return fmt.Errorf("xml parse: no root element")
	}
	if len(open) > 0 {
		return fmt.Errorf("xml parse: unclosed element %s", open[len(open)-1])
	}
	return nil
}

// localNames remembers, per local name of a prefixed name, whether it is a
// name on its own (see ok): a document repeats its names, so each distinct
// one is parsed once.
type localNames map[string]bool

// ok reports whether the part of n the tree keeps, its local name, is a
// name on its own. The decoder checks a prefixed name as a whole, so `A:0`
// passes although `0` alone would not parse; only prefixed names need the
// check.
func (m *localNames) ok(n xml.Name) bool {
	if n.Space == "" {
		return true
	}
	valid, seen := (*m)[n.Local]
	if !seen {
		tok, err := xml.NewDecoder(strings.NewReader("<" + n.Local + "/>")).Token()
		start, isStart := tok.(xml.StartElement)
		valid = err == nil && isStart && start.Name.Space == "" && start.Name.Local == n.Local
		if *m == nil {
			*m = localNames{}
		}
		(*m)[n.Local] = valid
	}
	return valid
}

// ParseWith reads one XML document with explicit options: Scan into a
// Builder.
func ParseWith(r io.Reader, opts ParseOptions) (*Node, error) {
	var b Builder
	if err := Scan(r, opts, &b); err != nil {
		return nil, err
	}
	return b.Root(), nil
}

// Builder is the Handler that builds the tree the events describe. Its
// nodes come from chunks, one allocation per chunk instead of one per node;
// each chunk is as large as the tree so far, up to arenaChunk nodes. Chunks
// never move, so node pointers stay valid, and a chunk is reclaimed once
// every node carved from it is unreachable, which holds for trees kept (and
// dropped) whole.
type Builder struct {
	free      []Node
	nodes     int
	root, cur *Node
}

const arenaChunk = 256

func (b *Builder) node(kind Kind, tag, value string) *Node {
	if len(b.free) == 0 {
		b.free = make([]Node, min(max(b.nodes, 8), arenaChunk))
	}
	b.nodes++
	n := &b.free[0]
	b.free = b.free[1:]
	n.Kind, n.Tag, n.Value = kind, tag, value
	return n
}

// Root returns the tree built so far: its root node, nil before any event.
func (b *Builder) Root() *Node { return b.root }

// add places n: under the open element, or as the root.
func (b *Builder) add(n *Node) error {
	switch {
	case b.cur == nil && b.root != nil:
		return fmt.Errorf("xmltree: a second root node")
	case b.cur == nil:
		b.root = n
	case n.Kind == Attr:
		n.Parent = b.cur
		b.cur.Attrs = append(b.cur.Attrs, n)
	default:
		b.cur.AddChild(n)
	}
	return nil
}

// Start opens an element.
func (b *Builder) Start(tag string) error {
	n := b.node(Element, tag, "")
	if err := b.add(n); err != nil {
		return err
	}
	b.cur = n
	return nil
}

// Attr adds an attribute to the open element.
func (b *Builder) Attr(name, value string) error { return b.add(b.node(Attr, name, value)) }

// Text adds a text node.
func (b *Builder) Text(value string) error { return b.add(b.node(Text, "", value)) }

// End closes the open element.
func (b *Builder) End(string) error {
	if b.cur == nil {
		return fmt.Errorf("xmltree: end of an element that is not open")
	}
	b.cur = b.cur.Parent
	return nil
}

// Emit hands the subtree to h as events in document order. An attribute or
// text node is one event.
func (n *Node) Emit(h Handler) error {
	switch n.Kind {
	case Attr:
		return h.Attr(n.Tag, n.Value)
	case Text:
		return h.Text(n.Value)
	}
	if err := h.Start(n.Tag); err != nil {
		return err
	}
	for _, a := range n.Attrs {
		if err := h.Attr(a.Tag, a.Value); err != nil {
			return err
		}
	}
	for _, c := range n.Children {
		if err := c.Emit(h); err != nil {
			return err
		}
	}
	return h.End(n.Tag)
}

// WriteXML serializes the subtree. Output is deterministic; attributes keep
// their stored order.
func (n *Node) WriteXML(w io.Writer) error {
	return n.Emit(NewWriter(w))
}

// String renders the subtree as XML.
func (n *Node) String() string {
	var sb strings.Builder
	n.WriteXML(&sb) // strings.Builder never errors
	return sb.String()
}

// Writer is the Handler that writes the events as XML text: an element with
// no children closes as <tag/>, text escapes & < >, attribute values escape
// " too, and an attribute outside an element is written as name="value".
// The first write error stops the writer; every later event returns it.
type Writer struct {
	w     io.Writer
	err   error
	depth int  // open elements
	open  bool // the innermost start tag still lacks its '>'
}

// NewWriter returns a Writer onto w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

func (x *Writer) put(s string) {
	if x.err == nil {
		_, x.err = io.WriteString(x.w, s)
	}
}

func (x *Writer) escaped(r *strings.Replacer, s string) {
	if x.err == nil {
		_, x.err = r.WriteString(x.w, s)
	}
}

// content ends a start tag still waiting for its '>'.
func (x *Writer) content() {
	if x.open {
		x.put(">")
		x.open = false
	}
}

// Start writes an element's start tag, leaving it open for attributes.
func (x *Writer) Start(tag string) error {
	x.content()
	x.put("<")
	x.put(tag)
	x.open = true
	x.depth++
	return x.err
}

// Attr writes an attribute into the open start tag.
func (x *Writer) Attr(name, value string) error {
	switch {
	case x.open:
		x.put(" ")
	case x.depth > 0:
		return fmt.Errorf("xmltree: attribute %s after element content", name)
	}
	x.put(name)
	x.put(`="`)
	x.escaped(attrEscaper, value)
	x.put(`"`)
	return x.err
}

// Text writes escaped character data.
func (x *Writer) Text(value string) error {
	x.content()
	x.escaped(textEscaper, value)
	return x.err
}

// End closes the innermost element.
func (x *Writer) End(tag string) error {
	x.depth--
	if x.open {
		x.put("/>")
		x.open = false
		return x.err
	}
	x.put("</")
	x.put(tag)
	x.put(">")
	return x.err
}

// A parser turns a literal carriage return into a line feed, and a literal
// line break or tab in an attribute into a space, so those characters are
// written as references: the text reads back as it was.
var textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "\r", "&#xD;")
var attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;",
	"\r", "&#xD;", "\n", "&#xA;", "\t", "&#x9;")

// Stats summarizes a tree's shape, used by the experiment harness to report
// workload parameters.
type Stats struct {
	Nodes     int // total nodes (elements + attributes + text)
	Elements  int
	Attrs     int
	Texts     int
	MaxDepth  int
	MaxFanout int
	Tags      []string // distinct element tags, sorted
}

// ComputeStats walks the tree once.
func ComputeStats(root *Node) Stats {
	s := Stats{}
	tags := map[string]bool{}
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		s.Nodes++
		if depth > s.MaxDepth {
			s.MaxDepth = depth
		}
		switch n.Kind {
		case Element:
			s.Elements++
			tags[n.Tag] = true
			fan := len(n.Children)
			if fan > s.MaxFanout {
				s.MaxFanout = fan
			}
			s.Nodes += len(n.Attrs)
			s.Attrs += len(n.Attrs)
			for _, c := range n.Children {
				walk(c, depth+1)
			}
		case Text:
			s.Texts++
		}
	}
	walk(root, 1)
	s.Tags = make([]string, 0, len(tags))
	for t := range tags {
		s.Tags = append(s.Tags, t)
	}
	sort.Strings(s.Tags)
	return s
}
