// Command xmlsh is an interactive shell over an ordered-XML store: load
// documents, run XPath and raw SQL, apply order-preserving updates, inspect
// generated plans and work counters, and open durable stores (opendur,
// \checkpoint).
//
//	$ go run ./cmd/xmlsh
//	xmlsh> open dewey
//	xmlsh> loadstr <list><i>a</i><i>b</i></list>
//	xmlsh> query /list/i[2]
//	xmlsh> insert 2 before <i>a2</i>
//	xmlsh> serialize
//
// Type `help` for the full command list.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	debugAddr := flag.String("debug", "", "serve the debug endpoint suite on <addr> (/debug/metrics, /debug/metrics.prom, /debug/trace, /debug/healthz, /debug/readyz, /debug/pprof/)")
	flag.Parse()
	sh := &shell{}
	if *debugAddr != "" {
		go serveDebug(*debugAddr, sh)
		fmt.Printf("debug endpoints at http://%s/debug/ (metrics, metrics.prom, trace, healthz, readyz, pprof)\n", *debugAddr)
	}
	fmt.Println("ordxml shell — type 'help' for commands, 'quit' to exit")
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("xmlsh> ")
		if !scanner.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "quit" || line == "exit" {
			return
		}
		out, err := sh.Execute(line)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		if out != "" {
			fmt.Println(out)
		}
	}
}
