package ordxml_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"ordxml"
	"ordxml/internal/bench"
	"ordxml/internal/core/xpath"
	"ordxml/internal/xmltree"
)

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
