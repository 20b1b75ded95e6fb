// Command ordlint is the engine's static-analysis suite: a multichecker
// bundling the per-package analyzers
//
//	exhaustenc — dispatch on an order-encoding kind must cover Global, Local
//	             and Dewey or fail loudly in its default
//	pinpair    — every buffer-pool pin (Fetch/Alloc/Pin) must be released
//	             on all paths
//	rawsql     — SQL text may not be assembled with Sprintf/concatenation
//	             outside the designated SQL-generation packages
//	spanfinish — every obs span started must be finished on all paths
//	wraperr    — errors formatted into fmt.Errorf must use %w, not %v/%s
//
// and the interprocedural contract analyzers, which run once over the whole
// loaded program linked by a call graph
//
//	atomicmix  — locations accessed via sync/atomic must never be accessed
//	             plainly
//	lockorder  — the repo-wide lock acquisition graph must be acyclic
//	viewmut    — catalog.View-reachable structures are immutable once
//	             published
//	walfirst   — durable mutation paths must append to the WAL before
//	             applying engine state
//
// pinpair and spanfinish are two configurations of one release walker,
// framework.Release.
//
// Usage:
//
//	go run ./cmd/ordlint ./...
//	go run ./cmd/ordlint -only rawsql,wraperr ./internal/core/...
//	go run ./cmd/ordlint -json ./... > ordlint.sarif
//
// Packages are loaded and type-checked from source, so the whole-program
// analyzers see every package the patterns name. Findings print one per
// line as file:line:col: message [analyzer]; with -json they render instead
// as a SARIF 2.1.0 log on stdout, the format CI code-scanning surfaces
// ingest. Either way the exit status is 1 when any finding is reported, 0
// on a clean tree, and the stderr summary breaks the count down per
// analyzer. A finding is silenced only by an
// `//ordlint:ignore <analyzer> <reason>` annotation on or above its line —
// the reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"ordxml/internal/lint/atomicmix"
	"ordxml/internal/lint/exhaustenc"
	"ordxml/internal/lint/framework"
	"ordxml/internal/lint/lockorder"
	"ordxml/internal/lint/pinpair"
	"ordxml/internal/lint/rawsql"
	"ordxml/internal/lint/spanfinish"
	"ordxml/internal/lint/viewmut"
	"ordxml/internal/lint/walfirst"
	"ordxml/internal/lint/wraperr"
)

// analyzers is kept sorted by name (TestAnalyzersSorted); -list and the
// SARIF rule table rely on the order being deterministic.
var analyzers = []*framework.Analyzer{
	atomicmix.Analyzer,
	exhaustenc.Analyzer,
	lockorder.Analyzer,
	pinpair.Analyzer,
	rawsql.Analyzer,
	spanfinish.Analyzer,
	viewmut.Analyzer,
	walfirst.Analyzer,
	wraperr.Analyzer,
}

// listAnalyzers renders the registry, one analyzer per line (the output is
// covered by a golden test).
func listAnalyzers(w io.Writer) {
	for _, a := range analyzers {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Fprintf(w, "%-12s %s\n", a.Name, doc)
	}
}

// summarize renders the stderr summary line with per-analyzer finding
// counts, names sorted: "ordlint: 3 finding(s) (lockorder 2, walfirst 1)".
func summarize(findings []framework.Finding) string {
	counts := map[string]int{}
	for _, f := range findings {
		counts[f.Analyzer]++
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s %d", n, counts[n]))
	}
	return fmt.Sprintf("ordlint: %d finding(s) (%s)", len(findings), strings.Join(parts, ", "))
}

func main() {
	var (
		list     = flag.Bool("list", false, "list the registered analyzers and exit")
		only     = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		jsonMode = flag.Bool("json", false, "emit findings as a SARIF 2.1.0 log on stdout")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ordlint [-list] [-json] [-only name,...] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Runs the ordered-XML engine analyzers over the named packages\n")
		fmt.Fprintf(os.Stderr, "(default ./...). Exits 1 if any finding is reported.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		listAnalyzers(os.Stdout)
		return
	}

	selected, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ordlint:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ordlint:", err)
		os.Exit(2)
	}
	pkgs, err := framework.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ordlint:", err)
		os.Exit(2)
	}
	findings, err := framework.RunAnalyzers(pkgs, selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ordlint:", err)
		os.Exit(2)
	}
	if *jsonMode {
		if err := framework.WriteSARIF(os.Stdout, selected, findings, cwd); err != nil {
			fmt.Fprintln(os.Stderr, "ordlint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintln(os.Stderr, summarize(findings))
		os.Exit(1)
	}
}

func selectAnalyzers(only string) ([]*framework.Analyzer, error) {
	if only == "" {
		return analyzers, nil
	}
	byName := map[string]*framework.Analyzer{}
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []*framework.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			known := make([]string, len(analyzers))
			for i, a := range analyzers {
				known[i] = a.Name
			}
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}
