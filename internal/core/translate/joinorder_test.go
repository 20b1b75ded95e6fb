package translate

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ordxml/internal/core/encoding"
	"ordxml/internal/xmlgen"
	"ordxml/internal/xmltree"
)

// valueDoc is a flat document of `s` steps followed by `o` elements. Each
// has an id attribute and name and q children; the first hits steps and
// every other element also have a p/v child path, with text "hit" under a
// step and "miss" elsewhere. With many steps and few others the predicate
// tags are as common as the step tag or rarer (p); with few steps among many
// others they are commoner.
func valueDoc(steps, others, hits int) *xmltree.Node {
	root := xmltree.NewElement("r")
	for i := 0; i < steps+others; i++ {
		tag, v := "s", "hit"
		if i >= steps {
			tag, v = "o", "miss"
		}
		e := root.AddChild(xmltree.NewElement(tag))
		e.SetAttr("id", fmt.Sprintf("%s%d", tag, i))
		e.AddChild(xmltree.NewElement("name")).AddChild(xmltree.NewText(fmt.Sprintf("w%d", i%7)))
		e.AddChild(xmltree.NewElement("q")).AddChild(xmltree.NewText(fmt.Sprint(i % 10)))
		if i < hits || i >= steps {
			e.AddChild(xmltree.NewElement("p")).AddChild(xmltree.NewElement("v")).AddChild(xmltree.NewText(v))
		}
	}
	return root
}

// driverAlias names the alias whose scan drives the value-predicate
// statement of a `//step[...]` query: the first statement's plan, last line.
func driverAlias(t *testing.T, ld *loadedDoc, query string) string {
	t.Helper()
	sqls, err := ld.eval.Explain(context.Background(), ld.docID, query)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ld.db.Explain(sqls[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(plan), "\n")
	last := lines[len(lines)-1]
	i := strings.Index(last, " AS ")
	if i < 0 {
		t.Fatalf("%s: no alias in %q", query, last)
	}
	return strings.Fields(last[i+4:])[0]
}

// TestValuePredicateDriversAgainstOracle runs value predicates on a `//`
// step — an attribute, a child element, a two-step child path, and != — on
// every encoding, where the predicate tag is rarer than the step tag (the
// predicate's side drives the join) and where it is commoner (the step
// drives), and checks each plan's node sequence against the oracle, on the
// loaded document and again after random mutations.
func TestValuePredicateDriversAgainstOracle(t *testing.T) {
	queries := []string{
		"//s[@id = 's40']",
		"//s[q = '3']",
		"//s[p/v = 'hit']",
		"//s[name != 'w2']",
	}
	// Read through text(), the same joins compare exactly what XPath does
	// even once mutations have put elements inside the compared ones.
	mutated := []string{
		"//s[@id = 's40']",
		"//s[@id != 's40']",
		"//s[q/text() = '3']",
		"//s[p/v/text() = 'hit']",
		"//s[name/text() != 'w2']",
	}
	for _, tc := range []struct {
		name           string
		tree           *xmltree.Node
		predicateDrive bool
	}{
		{"predicate-rarer", valueDoc(120, 0, 3), true},
		{"predicate-commoner", valueDoc(3, 150, 3), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var lds []*loadedDoc
			for _, k := range []encoding.Kind{encoding.Global, encoding.Local, encoding.Dewey} {
				lds = append(lds, load(t, encoding.Options{Kind: k}, tc.tree))
			}
			for _, ld := range lds {
				for _, q := range queries {
					ld.check(t, q)
				}
				// n1 is the step's alias in the translator's SQL.
				for _, q := range []string{"//s[@id = 's40']", "//s[p/v = 'hit']"} {
					if got := driverAlias(t, ld, q); (got != "n1") != tc.predicateDrive {
						t.Errorf("%s: %s drives %q; want the predicate side driving: %v",
							optName(ld.eval.opts), got, q, tc.predicateDrive)
					}
				}
			}
			r := rand.New(rand.NewSource(int64(len(tc.name))))
			for round := 0; round < 2; round++ {
				mutate(t, r, tc.tree, lds, 8)
				for _, ld := range lds {
					for _, q := range mutated {
						ld.check(t, q)
					}
				}
			}
		})
	}
}

// TestValuePredicateWork measures rows examined (index entries plus scanned
// rows) on the benchmark's 33,630-node catalog: Q7 and Q8 drive from their
// value predicates instead of probing every item, and the person
// counter-cases, whose predicate tags (2,406 id attributes, 2,406 names)
// outnumber the 6 persons, keep the person step driving (18 to 26 rows). A
// planner that always drove from the predicate would examine thousands.
// The first, plan-cache-missing run counts what a warm one does.
func TestValuePredicateWork(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 33,630-node catalog")
	}
	tree := xmlgen.Catalog(xmlgen.CatalogConfig{Regions: 3, ItemsPerRegion: 800, KeywordsPerItem: 2, DescriptionWords: 8, Seed: 42})
	var personID, personName string
	tree.Walk(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.Element && n.Tag == "person" {
			personID, _ = n.GetAttr("id")
			for _, c := range n.Children {
				if c.Tag == "name" {
					personName = c.TextContent()
				}
			}
			return false
		}
		return true
	})
	cases := []struct {
		query string
		max   int64
	}{
		{"//item[@id = 'item400']", 3_000}, // 2,407; in FROM order 14,400
		{"//item[quantity = '5']", 6_000},  // 5,040; in FROM order 16,800
		{"//person[@id = '" + personID + "']", 200},
		{"//person[name = '" + personName + "']", 200},
	}
	for _, k := range []encoding.Kind{encoding.Global, encoding.Local, encoding.Dewey} {
		ld := load(t, encoding.Options{Kind: k}, tree)
		for _, c := range cases {
			var work [2]int64
			for run := range work {
				before := ld.db.Metrics()
				ld.check(t, c.query)
				work[run] = ld.db.Metrics().Delta(before, "storage.index_probes", "storage.rows_scanned")
			}
			if work[0] != work[1] {
				t.Errorf("%s: %q examined %d rows cold, %d warm", k, c.query, work[0], work[1])
			}
			if work[1] > c.max {
				t.Errorf("%s: %q examined %d rows, want <= %d\nSQL: %v", k, c.query, work[1], c.max, ld.eval.LastSQL())
			}
		}
	}
}
