package ordxml

import (
	"fmt"
	"math/rand"
	"slices"
	"syscall"
	"testing"

	"ordxml/internal/core/xpath"
	"ordxml/internal/vfs/vfstest"
	"ordxml/internal/xmlgen"
	"ordxml/internal/xmltree"
)

// Named op lists: fixed cases of earlier bugs, each run by the model harness
// on the configurations it was found on.

func runNamed(t *testing.T, fault string, configs []string, ops []modelOp) {
	for _, name := range configs {
		t.Run(name, func(t *testing.T) {
			parallel(t, fault)
			runOrShrink(t, name+" "+fault, 0, ops, sessionRun(t, modelConfigNamed(name), fault, 0, 0))
		})
	}
}

// opList builds a named list against an oracle of its own, so a list can
// name a node by a path instead of counting positions by hand.
type opList struct {
	o   oracle
	ops []modelOp
}

func (l *opList) add(ops ...modelOp) {
	for _, op := range ops {
		l.o.apply(op)
		l.ops = append(l.ops, op)
	}
}

// at is the //* position, in the doc-th document, of the first element
// path selects.
func (l *opList) at(doc int, path string) int {
	root := l.o.docs[doc].root
	hits, err := xpath.EvalString(root, path)
	if err != nil || len(hits) == 0 {
		panic(fmt.Sprintf("opList: %q selects nothing (%v)", path, err))
	}
	return slices.Index(nodesOf(root, xmltree.Element), hits[0])
}

// TestLifetimeReopenLoopGOGC1 is the first GC-timing corruption: a store
// updated, checkpointed and reopened over and over with the collector at
// GOGC=1 must pass the on-disk and ownership checks every time.
func TestLifetimeReopenLoopGOGC1(t *testing.T) {
	ops := []modelOp{{Kind: "load", Name: "catalog", XML: catalogXML(7)}}
	for round := 0; round < 6; round++ {
		for i := 0; i < 5; i++ {
			ops = append(ops, modelOp{Kind: "insert", Pos: "first-child", XML: fmt.Sprintf("<R%d>x</R%d>", round, round)})
		}
		ops = append(ops, modelOp{Kind: "checkpoint"}, modelOp{Kind: "reopen"})
	}
	runNamed(t, "gc", []string{"global/pool=8"}, ops)
}

// TestLifetimeAbandonAfterCheckpoint is the second: checkpoint, update, then
// drop the store without Close (a process exit) and reopen. The checkpoint
// and the log must hold every acknowledged update.
func TestLifetimeAbandonAfterCheckpoint(t *testing.T) {
	runNamed(t, "gc", []string{"dewey/pool=8"}, []modelOp{
		{Kind: "load", Name: "catalog", XML: catalogXML(3)},
		{Kind: "checkpoint"},
		{Kind: "insert", Pos: "last-child", XML: "<after>checkpoint</after>"},
		{Kind: "abandon"},
	})
}

// TestFailedPageSyncDegrades: an fsync error on the page file during a
// checkpoint drops pages that the pool then holds clean. The store must
// degrade: a later checkpoint's sync would succeed and install a manifest
// naming pages the disk lost, which the reopen after a power cut reads.
func TestFailedPageSyncDegrades(t *testing.T) {
	ops := []modelOp{
		{Kind: "load", Name: "d", XML: valuesFixture},
		{Kind: "checkpoint"},
		{Kind: "checkpoint"},
		{Kind: "reopen"},
	}
	for _, name := range []string{"dewey/durable", "global/pool=8"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runOrShrink(t, name+" ioerr", 0, ops, func(cand []modelOp) error {
				r := newModelRun(modelConfigNamed(name), "ioerr", "", 0, len(cand))
				r.ioStep, r.ioFault = 1, vfstest.Fault{Op: "sync", Name: pagesFile, N: 1, Err: syscall.EIO}
				r.strict = len(cand) == len(ops)
				return r.session(cand)
			})
		})
	}
}

// TestOpenDurableMissingManifest: once a checkpoint has rotated the log, the
// log alone no longer holds the store. Losing meta.db must fail the open with
// an error naming it, not recover an empty store from the log tail.
func TestOpenDurableMissingManifest(t *testing.T) {
	runNamed(t, "none", []string{"dewey/durable"}, []modelOp{
		{Kind: "load", Name: "d", XML: "<R><A>one</A></R>"},
		{Kind: "checkpoint"},
		{Kind: "insert", Pos: "last-child", XML: "<B>two</B>"},
		{Kind: "reopen", Name: metaFile},
	})
}

// TestDurableDocIDSurvivesReplay: a document loaded after dropping the
// highest ones gets the same id in the session and on replay — MAX(doc)+1,
// which reuses the ids of dropped highest documents — so logged operations
// on it replay against it.
func TestDurableDocIDSurvivesReplay(t *testing.T) {
	runNamed(t, "none", []string{"dewey/durable"}, []modelOp{
		{Kind: "load", Name: "d1", XML: "<r><a/></r>"},
		{Kind: "load", Name: "d2", XML: "<r><a/></r>"},
		{Kind: "load", Name: "d3", XML: "<r><a/></r>"},
		{Kind: "checkpoint"},
		{Kind: "drop", Doc: 2},
		{Kind: "drop", Doc: 1},
		{Kind: "load", Name: "d", XML: "<r><b/></r>"},
		{Kind: "insert", Doc: 1, Pos: "last-child", XML: "<c/>"},
		{Kind: "reopen"},
	})
}

// TestOversizedTagIsAnError: an element name whose index key cannot fit a
// tree page is btree.ErrKeyTooLarge, not a panic, on every encoding, and the
// store still takes valid updates. The row fits a heap page: the catalog
// sizes every key before it touches storage. A durable store has already
// logged the operation, so reopening replays it as one failed operation.
func TestOversizedTagIsAnError(t *testing.T) {
	runNamed(t, "none", []string{"global/memory", "global/durable", "local/memory", "local/durable",
		"dewey/memory", "dewey/durable"}, []modelOp{
		{Kind: "load", Name: "hamlet", XML: testDoc},
		{Kind: "insert", Pos: "last-child", XML: oversizedFragment},
		{Kind: "insert", Pos: "last-child", XML: "<t/>"},
		{Kind: "reopen"},
	})
}

// e3Queries are the E3 suite (internal/bench QuerySuite at 12 items per
// region) and wide-context shapes of the translator's statement-count test,
// with root-anchored chains whose final statement the planner answers in
// index order without a Sort under Global and Dewey.
var e3Queries = []string{
	"/site/regions/namerica/item", "/site/regions/namerica/item[6]",
	"/site/regions/namerica/item[position() <= 10]", "/site/regions/namerica/item[3]/following-sibling::item",
	"/site/regions/namerica/item[6]/preceding-sibling::item", "//keyword", "//item[@id = 'item6']",
	"//item[quantity = '5']", "/site/regions/namerica//keyword",
	"//item//keyword", "//item/name/..", "//item/following-sibling::item[1]",
	"//keyword/ancestor::item", "//item//keyword[1]", "//description//text()",
	"/site/regions/namerica/item/name", "/site/regions/namerica/item/@id",
	"/site/banner/item/quantity", "/site//keyword", "/site/regions/namerica//keyword[1]",
}

// TestQueriesAfterOutOfOrderIDs runs the E3 queries after updates that
// break the match between node ids and document order: inserts at the
// beginning of a region and of the document take ids above every loaded
// node (under Dewey the region insert renumbers its siblings), and a move
// renumbers a subtree with the largest ids in the store. A context set is
// bound in the key order of the index a join probes, so consecutive probes
// jump backwards and forwards through the tree, and a chain's final
// statement returns document order from those probes with no sort anywhere.
// Each step is a subtest: the updates so far, then the queries.
func TestQueriesAfterOutOfOrderIDs(t *testing.T) {
	var l opList
	step := func(name string, ops ...modelOp) {
		l.add(ops...)
		list := slices.Clone(l.ops)
		for i, q := range e3Queries {
			list = append(list, modelOp{Kind: "query", Node: 7 * (i + 1), Value: q})
		}
		t.Run(name, func(t *testing.T) {
			runNamed(t, "none", []string{"global/memory", "global/pool=8", "local/memory", "local/pool=8",
				"dewey/memory", "dewey/pool=8"}, list)
		})
	}
	catalog := catalogDoc(12).String()
	step("load", modelOp{Kind: "load", Name: "catalog", XML: catalog})
	step("insert at the beginning of a region", modelOp{Kind: "insert",
		Node: l.at(0, "/site/regions/namerica"), Pos: "first-child",
		XML: `<item id="new0"><name>n</name><quantity>5</quantity><description>d<keyword>k0</keyword><keyword>k1</keyword></description></item>`})
	step("insert at the beginning of the document", modelOp{Kind: "insert", Pos: "first-child",
		XML: `<banner><keyword>top</keyword><item id="new1"><quantity>5</quantity></item></banner>`})
	step("moving the last item of a region to its front", modelOp{Kind: "move",
		Node: l.at(0, "/site/regions/namerica/item[last()]"), Target: l.at(0, "/site/regions/namerica/item[1]"), Pos: "before"})
	step("insert between moved and inserted items", modelOp{Kind: "insert",
		Node: l.at(0, "/site/regions/namerica/item[2]"), Pos: "before",
		XML: `<item id="new2"><quantity>5</quantity><description><keyword>k2</keyword></description></item>`})
}

// TestQueryValuesAgainstOracle holds QueryValues to the oracle's string
// values — with each query step's node sequence and Serialize — on every
// encoding in memory and on an 8-frame pool, and on padded-text Dewey keys:
// over the values fixture, whose matches nest inside each other, and a
// random document, before and after a random session of inserts, deletes
// and moves on each. The queries return nested matches, the same subtree
// under several matches, attribute and text nodes, and nothing.
func TestQueryValuesAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ops := []modelOp{{Kind: "load", Name: "values", XML: valuesFixture},
		{Kind: "load", Name: "random", XML: xmlgen.Random(xmlgen.DefaultRandom(7)).String()}}
	queries := func(doc int) {
		for i, q := range modelQueries {
			ops = append(ops, modelOp{Kind: "query", Doc: doc, Node: i, Value: q})
		}
		for i := 0; i < 40; i++ {
			ops = append(ops, modelOp{Kind: "query", Doc: doc, Node: r.Intn(1 << 16), Value: randomQuery(r)})
		}
	}
	for doc := range 2 {
		queries(doc)
		for i := 0; i < 16; i++ {
			op := modelOp{Kind: []string{"insert", "delete", "move"}[r.Intn(3)], Doc: doc,
				Node: r.Intn(1 << 16), Target: r.Intn(1 << 16), Pos: modelPositions[r.Intn(len(modelPositions))]}
			if op.Kind == "insert" {
				op.XML = fmt.Sprintf(`<a n="%d">s%d<a><b>t%d</b></a>u</a>`, i, i, i)
			}
			ops = append(ops, op)
		}
		queries(doc)
	}
	runNamed(t, "none", []string{"global/memory", "global/pool=8", "local/memory", "local/pool=8",
		"dewey/memory", "dewey/pool=8", "dewey_text/memory"}, ops)
}

// TestMoveBesideTheRootFails: a move whose target position is a sibling of
// the document root fails before it deletes anything, so the document is
// unchanged, in the session and on replay.
func TestMoveBesideTheRootFails(t *testing.T) {
	runNamed(t, "none", []string{"global/durable", "local/memory", "dewey/pool=8"}, []modelOp{
		{Kind: "load", Name: "d", XML: `<r><a>x</a><b k="v"/></r>`},
		{Kind: "move", Node: 1, Target: 0, Pos: "before"},
		{Kind: "move", Node: 2, Target: 0, Pos: "after"},
		{Kind: "reopen"},
	})
}

// TestValuePredicateOverMixedContent pins the value-predicate rule on mixed
// content, the shape of the first soak divergence: an element inserted into
// <leaf>v2</leaf> makes its string value v4v2, and [leaf = 'v2'] still
// compares the leaf's text child (see oracleQuery).
func TestValuePredicateOverMixedContent(t *testing.T) {
	runNamed(t, "none", []string{"global/memory", "local/memory", "dewey/memory"}, []modelOp{
		{Kind: "load", Name: "d", XML: `<r><ins n="1"><leaf>v2</leaf></ins><x><leaf><i>a</i>v2</leaf></x></r>`},
		{Kind: "insert", Node: 2, Pos: "first-child", XML: `<ins n="4"><leaf>v4</leaf></ins>`},
		{Kind: "query", Value: "//ins[leaf = 'v2']"},
		{Kind: "query", Value: "//x[leaf = 'av2']"},
		{Kind: "query", Value: "//leaf[. = 'v2']"},
		{Kind: "query", Value: "//leaf[. != 'v2']"},
	})
}
