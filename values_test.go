package ordxml_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"ordxml"
	"ordxml/internal/bench"
	"ordxml/internal/core/xpath"
	"ordxml/internal/xmlgen"
	"ordxml/internal/xmltree"
)

// valuesFixture nests a inside a, so one query's matches lie inside each
// other's subtrees, and mixes text, attributes and empty elements.
const valuesFixture = `<r><a id="1">x<a id="2">y<b k="v">z</b><a id="3"/></a>w</a>` +
	`<c>t<a id="4">u<b/></a></c><b k="w">q<c><a>v<a>s</a></a></c></b></r>`

// valuesFixtureQueries return nested matches, repeated subtrees, attribute
// and text nodes and nothing at all.
var valuesFixtureQueries = []string{
	"//a", "//a//a", "//*", "/r", "//b", "//a/b", "//c//a", "//a[1]", "//a[last()]",
	"//a/ancestor::*", "//b/..", "//a/following-sibling::*", "//a[@id = '2']",
	"//*/@k", "//*/@id", "//b/@k", "//text()", "//a/text()", "//nosuch", "/r/nosuch//a",
}

// randomValueQueries draws n paths of one to three child or descendant steps
// over the random documents' tags, some with a positional predicate or a
// text or attribute step at the end.
func randomValueQueries(r *rand.Rand, n int) []string {
	tags := []string{"a", "b", "c", "d", "*"}
	out := make([]string, n)
	for i := range out {
		var sb strings.Builder
		for k := 1 + r.Intn(3); k > 0; k-- {
			sb.WriteString([]string{"/", "//"}[min(1, r.Intn(3))])
			sb.WriteString(tags[r.Intn(len(tags))])
			if r.Intn(4) == 0 {
				sb.WriteString([]string{"[1]", "[2]", "[last()]"}[r.Intn(3)])
			}
		}
		switch r.Intn(6) {
		case 0:
			sb.WriteString("/text()")
		case 1:
			sb.WriteString("/@*")
		}
		out[i] = sb.String()
	}
	return out
}

// valuesSessions loads tree into a memory and an 8-frame durable store per
// encoding, and into a memory store with padded-text Dewey keys.
func valuesSessions(t *testing.T, tree *xmltree.Node) []*session {
	t.Helper()
	text, err := ordxml.Open(ordxml.Options{Encoding: ordxml.Dewey, DeweyAsText: true})
	if err != nil {
		t.Fatal(err)
	}
	sessions := []*session{{name: "dewey_text/memory", store: text}}
	for _, enc := range []ordxml.Encoding{ordxml.Global, ordxml.Local, ordxml.Dewey} {
		mem, err := ordxml.Open(ordxml.Options{Encoding: enc})
		if err != nil {
			t.Fatal(err)
		}
		dur, err := ordxml.OpenDurable(t.TempDir(), ordxml.Options{Encoding: enc, BufferPoolFrames: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dur.Close() })
		sessions = append(sessions, &session{name: enc.String() + "/memory", store: mem},
			&session{name: enc.String() + "/durable", store: dur})
	}
	for _, s := range sessions {
		if s.doc, err = s.store.LoadString("values", tree.String()); err != nil {
			t.Fatal(err)
		}
		s.ids = map[*xmltree.Node]int64{}
		s.mapFragment(tree, 1)
	}
	return sessions
}

// checkValues compares QueryValues with the oracle's string values.
func (s *session) checkValues(t *testing.T, oracle *xmltree.Node, q string) {
	t.Helper()
	nodes, err := xpath.EvalString(oracle, q)
	if err != nil {
		t.Fatalf("oracle %q: %v", q, err)
	}
	want := xpath.StringValues(nodes)
	got, err := s.store.QueryValues(s.doc, q)
	if err != nil {
		t.Fatalf("%s: %q: %v", s.name, q, err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: %q: values %q, oracle %q", s.name, q, got, want)
	}
}

// editSession applies n random inserts, deletes and moves to every session
// and mirrors them on the oracle. Inserted fragments nest a inside a.
func editSession(t *testing.T, r *rand.Rand, oracle *xmltree.Node, sessions []*session, n int) {
	t.Helper()
	for op := 0; op < n; op++ {
		var elems []*xmltree.Node
		oracle.Walk(func(n *xmltree.Node) bool {
			if n.Kind == xmltree.Element {
				elems = append(elems, n)
			}
			return true
		})
		node, target := elems[r.Intn(len(elems))], elems[r.Intn(len(elems))]
		pos := []ordxml.Position{ordxml.FirstChild, ordxml.LastChild, ordxml.Before, ordxml.After}[r.Intn(4)]
		if target.Parent == nil && (pos == ordxml.Before || pos == ordxml.After) {
			pos = ordxml.LastChild
		}
		switch r.Intn(3) {
		case 0: // delete
			if node.Parent == nil || len(elems) < 6 {
				continue
			}
			for _, s := range sessions {
				if _, err := s.store.Delete(s.doc, s.ids[node]); err != nil {
					t.Fatalf("%s: op %d: delete: %v", s.name, op, err)
				}
			}
			detach(node)
		case 1: // move
			inside := false
			for p := target; p != nil; p = p.Parent {
				inside = inside || p == node
			}
			if node.Parent == nil || inside {
				continue
			}
			for _, s := range sessions {
				rep, err := s.store.Move(s.doc, s.ids[node], s.ids[target], pos)
				if err != nil {
					t.Fatalf("%s: op %d: move: %v", s.name, op, err)
				}
				s.mapFragment(node, rep.NewID)
			}
			detach(node)
			place(node, target, pos)
		default: // insert
			frag := fmt.Sprintf(`<a n="%d">s%d<a><b>t%d</b></a>u</a>`, op, op, op)
			fragNode, err := xmltree.ParseString(frag)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range sessions {
				rep, err := s.store.Insert(s.doc, s.ids[target], pos, frag)
				if err != nil {
					t.Fatalf("%s: op %d: insert: %v", s.name, op, err)
				}
				s.mapFragment(fragNode, rep.NewID)
			}
			place(fragNode, target, pos)
		}
	}
}

func detach(n *xmltree.Node) {
	p := n.Parent
	p.Children = slices.Delete(p.Children, n.ChildIndex(), n.ChildIndex()+1)
	n.Parent = nil
}

// TestQueryValuesAgainstOracle holds QueryValues to the xpath oracle's string
// values on every encoding, in memory and on a durable store whose pool holds
// 8 pages (and with padded-text Dewey keys in memory), before and after a random session of inserts, deletes and moves.
// The queries return matches nested inside other matches, the same subtree
// under several matches, attribute and text nodes, and nothing.
func TestQueryValuesAgainstOracle(t *testing.T) {
	fixture, err := xmltree.ParseString(valuesFixture)
	if err != nil {
		t.Fatal(err)
	}
	for i, oracle := range []*xmltree.Node{fixture, xmlgen.Random(xmlgen.DefaultRandom(7))} {
		r := rand.New(rand.NewSource(int64(i)))
		queries := append(slices.Clone(valuesFixtureQueries), randomValueQueries(r, 40)...)
		sessions := valuesSessions(t, oracle)
		check := func() {
			for _, q := range queries {
				for _, s := range sessions {
					s.checkValues(t, oracle, q)
				}
			}
		}
		check()
		editSession(t, r, oracle, sessions, 16)
		check()
	}
}

// subtreeHeight is the number of edges on the longest downward path from n.
func subtreeHeight(n *xmltree.Node) int {
	h := 0
	if len(n.Attrs) > 0 {
		h = 1
	}
	for _, c := range n.Children {
		h = max(h, 1+subtreeHeight(c))
	}
	return h
}

// TestPublishStatementsPerQuery guards set-at-a-time publishing on the E3
// suite: beyond the query's own statements, QueryValues reads its element
// matches' subtrees with at most one statement per tree level below them
// (Global, Local) or exactly one (Dewey), and Serialize reads one match's
// subtree the same way after the statement that finds its row — at a catalog
// of 20 and of 800 items per region alike, whatever the number of matches.
func TestPublishStatementsPerQuery(t *testing.T) {
	for _, items := range []int{20, 800} {
		oracle := bench.CatalogDoc(items)
		for _, cfg := range bench.Encodings() {
			s, doc, err := bench.NewStore(cfg, oracle)
			if err != nil {
				t.Fatal(err)
			}
			statements := func() int64 { return s.Metrics().Counters["sqldb.queries"] }
			var suite int64
			for _, q := range bench.QuerySuite(items) {
				nodes, err := xpath.EvalString(oracle, q.XPath)
				if err != nil || len(nodes) == 0 {
					t.Fatalf("oracle %s: %d nodes, %v", q.ID, len(nodes), err)
				}
				height := 0
				for _, n := range nodes {
					height = max(height, subtreeHeight(n))
				}
				levels := int64(height + 1)
				if cfg.Opts.Encoding == ordxml.Dewey {
					levels = 1
				}
				before := statements()
				hits, err := s.Query(doc, q.XPath)
				if err != nil {
					t.Fatal(err)
				}
				own := statements() - before
				before = statements()
				if _, err := s.QueryValues(doc, q.XPath); err != nil {
					t.Fatal(err)
				}
				values := statements() - before
				suite += values
				if values > own+levels {
					t.Errorf("%s items=%d %s: QueryValues ran %d statements, the query %d, want at most %d more",
						cfg.Name, items, q.ID, values, own, levels)
				}
				before = statements()
				if _, err := s.Serialize(doc, hits[0].ID); err != nil {
					t.Fatal(err)
				}
				if n := statements() - before; n > 1+levels {
					t.Errorf("%s items=%d %s: Serialize ran %d statements, want at most %d", cfg.Name, items, q.ID, n, 1+levels)
				}
			}
			if suite > 80 {
				t.Errorf("%s items=%d: the suite's QueryValues ran %d statements, want at most 80", cfg.Name, items, suite)
			}
		}
	}
}

// TestCancelWideQueryValues cancels QueryValues over 10^5 element matches at
// several points of its run: the query's statements, the subtree reads and
// the string-value loop all poll, so it returns ErrCanceled promptly on every
// encoding wherever the cancellation lands.
func TestCancelWideQueryValues(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 3·10^5 nodes per encoding")
	}
	root := xmltree.NewElement("r")
	for i := 0; i < 100_000; i++ {
		root.AddChild(xmltree.NewElement("a")).AddChild(xmltree.NewElement("b")).AddChild(xmltree.NewText("x"))
	}
	xml := root.String()
	for _, enc := range []ordxml.Encoding{ordxml.Global, ordxml.Local, ordxml.Dewey} {
		s, err := ordxml.Open(ordxml.Options{Encoding: enc})
		if err != nil {
			t.Fatal(err)
		}
		doc, err := s.LoadString("wide", xml)
		if err != nil {
			t.Fatal(err)
		}
		var full time.Duration
		for i := 0; i < 2; i++ { // the second, warm run sets the time scale
			start := time.Now()
			vals, err := s.QueryValues(doc, "//a")
			full = time.Since(start)
			if err != nil || len(vals) != 100_000 || vals[0] != "x" {
				t.Fatalf("%s: %d values, %v", enc, len(vals), err)
			}
		}
		for _, frac := range []time.Duration{16, 8, 4, 2} {
			// Three attempts tell a stretch without a poll point from a
			// collector cycle or a descheduled goroutine.
			best := time.Hour
			for attempt := 0; attempt < 3 && best > cancelLag; attempt++ {
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan error, 1)
				go func() {
					_, err := s.QueryValuesCtx(ctx, doc, "//a")
					done <- err
				}()
				time.Sleep(full / frac)
				cancel()
				canceled := time.Now()
				err := <-done
				lag := time.Since(canceled)
				if err == nil {
					t.Logf("%s: finished before the cancellation at 1/%d of %v", enc, frac, full)
					best = 0
				} else if !errors.Is(err, ordxml.ErrCanceled) {
					t.Fatalf("%s: canceled at 1/%d of %v: err = %v", enc, frac, full, err)
				}
				best = min(best, lag)
			}
			if best > cancelLag {
				t.Errorf("%s: canceled at 1/%d of %v: returned %v later at best, want <= %v", enc, frac, full, best, cancelLag)
			}
		}
	}
}

// TestQueryValuesMemoryBudget: the subtree reads charge the request's memory
// budget like the query's own statements, so a budget the query fits in but
// its match's subtree does not stops QueryValues with ErrMemoryBudget.
func TestQueryValuesMemoryBudget(t *testing.T) {
	for _, cfg := range bench.Encodings() {
		s, doc, err := bench.NewStore(cfg, bench.CatalogDoc(50))
		if err != nil {
			t.Fatal(err)
		}
		s.SetMemoryBudget(16 * 1024)
		if _, err := s.Query(doc, "/site"); err != nil {
			t.Fatalf("%s: Query under the budget: %v", cfg.Name, err)
		}
		if _, err := s.QueryValues(doc, "/site"); !errors.Is(err, ordxml.ErrMemoryBudget) {
			t.Errorf("%s: QueryValues of the whole document: %v, want ErrMemoryBudget", cfg.Name, err)
		}
		s.SetMemoryBudget(0)
		if _, err := s.QueryValues(doc, "/site"); err != nil {
			t.Errorf("%s: after removing the budget: %v", cfg.Name, err)
		}
	}
}
