package ordxml_test

import (
	"fmt"

	"ordxml"
)

// The package-level example: load, query, update, reconstruct.
func Example() {
	store, _ := ordxml.Open(ordxml.Options{Encoding: ordxml.Dewey})
	doc, _ := store.LoadString("menu", `<menu>
		<dish><name>soup</name></dish>
		<dish><name>roast</name></dish>
	</menu>`)

	names, _ := store.QueryValues(doc, "/menu/dish/name")
	fmt.Println(names)

	dishes, _ := store.Query(doc, "/menu/dish[2]")
	store.Insert(doc, dishes[0].ID, ordxml.Before, "<dish><name>salad</name></dish>")

	names, _ = store.QueryValues(doc, "/menu/dish/name")
	fmt.Println(names)
	// Output:
	// [soup roast]
	// [soup salad roast]
}

func ExampleStore_Query() {
	store, _ := ordxml.Open(ordxml.Options{Encoding: ordxml.Dewey})
	doc, _ := store.LoadString("d", `<list><i k="a"/><i k="b"/><i k="c"/></list>`)
	// Ordered axes: everything after the first item.
	nodes, _ := store.Query(doc, "/list/i[1]/following-sibling::i/@k")
	for _, n := range nodes {
		fmt.Println(n.Value, n.OrderKey)
	}
	// Output:
	// b 1.2.1
	// c 1.3.1
}

func ExampleStore_ExplainQuery() {
	store, _ := ordxml.Open(ordxml.Options{Encoding: ordxml.Global})
	doc, _ := store.LoadString("d", `<a><b/></a>`)
	sqls, _ := store.ExplainQuery(doc, "/a/b")
	fmt.Println(sqls[0])
	// Output:
	// SELECT n2.id, n2.parent, n2.gorder, n2.kind, n2.tag, n2.value FROM xg_nodes n1, xg_nodes n2 WHERE n1.doc = 1 AND n1.parent IS NULL AND n1.kind = 'elem' AND n1.tag = 'a' AND n2.doc = 1 AND n2.parent = n1.id AND n2.kind = 'elem' AND n2.tag = 'b' ORDER BY n1.gorder, n2.gorder
}

func ExampleStore_Insert() {
	store, _ := ordxml.Open(ordxml.Options{Encoding: ordxml.Local})
	doc, _ := store.LoadString("d", `<log><e>1</e><e>3</e></log>`)
	entries, _ := store.Query(doc, "/log/e[2]")
	rep, _ := store.Insert(doc, entries[0].ID, ordxml.Before, "<e>2</e>")
	fmt.Println("renumbered:", rep.RowsRenumbered)
	xml, _ := store.SerializeDocument(doc)
	fmt.Println(xml)
	// Output:
	// renumbered: 1
	// <log><e>1</e><e>2</e><e>3</e></log>
}

func ExampleStore_Move() {
	store, _ := ordxml.Open(ordxml.Options{Encoding: ordxml.Dewey})
	doc, _ := store.LoadString("d", `<q><job n="1"/><job n="2"/><job n="3"/></q>`)
	third, _ := store.Query(doc, "/q/job[3]")
	first, _ := store.Query(doc, "/q/job[1]")
	store.Move(doc, third[0].ID, first[0].ID, ordxml.Before)
	order, _ := store.Query(doc, "/q/job/@n")
	for _, n := range order {
		fmt.Print(n.Value, " ")
	}
	// Output:
	// 3 1 2
}
