// Command xmlshred loads an XML file into a store and reports how it
// shredded: row counts, storage size, and optionally a dump of the node
// table so the three encodings can be inspected side by side. With -save the
// store is a durable directory, checkpointed after the load.
//
// Usage:
//
//	xmlshred -enc dewey doc.xml
//	xmlshred -enc global -dump 20 doc.xml
//	xmlshred -enc dewey -save store/ doc.xml
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ordxml"
	"ordxml/internal/sqlgen"
)

func main() {
	encName := flag.String("enc", "dewey", "order encoding: global, local or dewey")
	gap := flag.Uint("gap", 1, "order-value gap (sparse orders)")
	dump := flag.Int("dump", 0, "dump the first N node rows")
	save := flag.String("save", "", "load into a durable store in this directory and checkpoint it")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: xmlshred [-enc global|local|dewey] [-gap N] [-dump N] [-save dir] file.xml")
		os.Exit(2)
	}

	enc, err := ordxml.ParseEncoding(*encName)
	fatal(err)
	opts := ordxml.Options{Encoding: enc, Gap: uint32(*gap)}
	var store *ordxml.Store
	if *save != "" {
		store, err = ordxml.OpenDurable(*save, opts)
	} else {
		store, err = ordxml.Open(opts)
	}
	fatal(err)
	// An existing store directory keeps its own encoding.
	enc = store.Encoding()

	f, err := os.Open(flag.Arg(0))
	fatal(err)
	defer f.Close()
	doc, err := store.Load(flag.Arg(0), f)
	fatal(err)

	docs, err := store.Documents()
	fatal(err)
	st := store.Storage()
	fmt.Printf("loaded %s as document %d (%s encoding)\n", flag.Arg(0), doc, enc)
	fmt.Printf("  nodes: %d rows, %d heap pages, %d bytes (%.1f bytes/node)\n",
		st.Rows, st.HeapPages, st.HeapBytes, float64(st.HeapBytes)/float64(docs[len(docs)-1].Nodes))

	if *save != "" {
		fatal(store.Checkpoint())
		fmt.Printf("  store checkpointed in %s (query it with xmlquery -db %s)\n", *save, *save)
	}

	if *dump > 0 {
		table := map[ordxml.Encoding]string{
			ordxml.Global: "xg_nodes", ordxml.Local: "xl_nodes", ordxml.Dewey: "xd_nodes",
		}[enc]
		ord := map[ordxml.Encoding]string{
			ordxml.Global: "gorder", ordxml.Local: "lorder", ordxml.Dewey: "path",
		}[enc]
		rows, err := store.SQL(sqlgen.SQL(
			"SELECT id, parent, kind, tag, value, %s FROM %s WHERE doc = ? ORDER BY id LIMIT ?",
			ord, table), doc, *dump)
		fatal(err)
		fmt.Println("\n" + strings.Join(rows.Columns, "\t"))
		for _, r := range rows.Values {
			fmt.Println(strings.Join(r, "\t"))
		}
	}
	fatal(store.Close())
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmlshred:", err)
		os.Exit(1)
	}
}
