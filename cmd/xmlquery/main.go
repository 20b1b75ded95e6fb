// Command xmlquery loads an XML file and evaluates XPath queries against it
// through the relational store, printing matches (and, with -sql, the
// generated SQL and work counters).
//
// Usage:
//
//	xmlquery -enc dewey doc.xml "/site/regions/namerica/item[2]/name"
//	xmlquery -enc local -sql doc.xml "//keyword"
//	xmlquery -serialize doc.xml "//item[1]"
//	xmlquery -db store/ "//item[2]"
package main

import (
	"flag"
	"fmt"
	"os"

	"ordxml"
)

func main() {
	encName := flag.String("enc", "dewey", "order encoding: global, local or dewey")
	showSQL := flag.Bool("sql", false, "print the generated SQL and work counters")
	serialize := flag.Bool("serialize", false, "print each match as a serialized subtree")
	dbPath := flag.String("db", "", "query the durable store in this directory (from xmlshred -save) instead of loading XML")
	flag.Parse()

	var store *ordxml.Store
	var doc ordxml.DocID
	var query string
	switch {
	case *dbPath != "" && flag.NArg() == 1:
		// OpenDurable creates a missing directory; a query must not.
		_, err := os.Stat(*dbPath)
		fatal(err)
		store, err = ordxml.OpenDurable(*dbPath, ordxml.Options{})
		fatal(err)
		docs, err := store.Documents()
		fatal(err)
		if len(docs) == 0 {
			fmt.Fprintln(os.Stderr, "xmlquery: store holds no documents")
			os.Exit(1)
		}
		doc = docs[0].ID
		query = flag.Arg(0)
	case *dbPath == "" && flag.NArg() == 2:
		enc, err := ordxml.ParseEncoding(*encName)
		fatal(err)
		store, err = ordxml.Open(ordxml.Options{Encoding: enc})
		fatal(err)
		f, err := os.Open(flag.Arg(0))
		fatal(err)
		defer f.Close()
		doc, err = store.Load(flag.Arg(0), f)
		fatal(err)
		query = flag.Arg(1)
	default:
		fmt.Fprintln(os.Stderr, "usage: xmlquery [-enc E] [-sql] [-serialize] file.xml xpath\n       xmlquery -db dir xpath")
		os.Exit(2)
	}
	before := store.Metrics()
	nodes, err := store.Query(doc, query)
	fatal(err)
	after := store.Metrics()

	for i, n := range nodes {
		switch {
		case *serialize && n.Kind == ordxml.ElementNode:
			xml, err := store.Serialize(doc, n.ID)
			fatal(err)
			fmt.Printf("%d\t%s\n", i+1, xml)
		case n.Kind == ordxml.AttributeNode:
			fmt.Printf("%d\t@%s=%q\torder=%s\n", i+1, n.Tag, n.Value, n.OrderKey)
		case n.Kind == ordxml.TextNode:
			fmt.Printf("%d\ttext %q\torder=%s\n", i+1, n.Value, n.OrderKey)
		default:
			vals, err := store.QueryValues(doc, query)
			fatal(err)
			fmt.Printf("%d\t<%s> %q\torder=%s\n", i+1, n.Tag, vals[i], n.OrderKey)
		}
	}
	fmt.Printf("-- %d match(es), %s encoding\n", len(nodes), store.Encoding())
	if *showSQL {
		sqls, err := store.ExplainQuery(doc, query)
		fatal(err)
		for _, s := range sqls {
			fmt.Println("SQL:", s)
		}
		fmt.Printf("work: %d index probes, %d rows scanned\n",
			after.Gauges["storage.index_probes"]-before.Gauges["storage.index_probes"],
			after.Gauges["storage.rows_scanned"]-before.Gauges["storage.rows_scanned"])
	}
	fatal(store.Close())
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmlquery:", err)
		os.Exit(1)
	}
}
