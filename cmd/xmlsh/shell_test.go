package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// run executes a command and fails the test on error.
func run(t *testing.T, sh *shell, line string) string {
	t.Helper()
	out, err := sh.Execute(line)
	if err != nil {
		t.Fatalf("%q: %v", line, err)
	}
	return out
}

// mustFail executes a command expecting an error.
func mustFail(t *testing.T, sh *shell, line string) {
	t.Helper()
	if out, err := sh.Execute(line); err == nil {
		t.Fatalf("%q succeeded: %s", line, out)
	}
}

func TestShellSession(t *testing.T) {
	sh := &shell{}

	// Commands before a store is open fail cleanly.
	mustFail(t, sh, "loadstr <a/>")
	mustFail(t, sh, "query /a")
	mustFail(t, sh, "bogus")
	if out := run(t, sh, "help"); !strings.Contains(out, "serialize") {
		t.Errorf("help = %.60s", out)
	}
	if out := run(t, sh, ""); out != "" {
		t.Errorf("empty line output: %q", out)
	}

	run(t, sh, "open dewey 8")
	mustFail(t, sh, "open nope")
	mustFail(t, sh, "query /a") // store open, no document

	run(t, sh, "loadstr <list><i>a</i><i>b</i><i>c</i></list>")
	out := run(t, sh, "query /list/i[2]")
	if !strings.Contains(out, "1 match(es)") || !strings.Contains(out, "<i>") {
		t.Errorf("query output: %s", out)
	}
	if out := run(t, sh, "values /list/i"); out != "a\nb\nc" {
		t.Errorf("values output: %q", out)
	}
	if out := run(t, sh, "explain /list/i"); !strings.Contains(out, "SELECT") {
		t.Errorf("explain output: %s", out)
	}
	if out := run(t, sh, "sql SELECT COUNT(*) FROM xd_nodes"); !strings.Contains(out, "7") {
		t.Errorf("sql output: %s", out)
	}

	// Mutations: insert before the second item, set a value, rename, move.
	out = run(t, sh, "query /list/i[2]")
	id := strings.Fields(out)[0] // "#N"
	run(t, sh, "insert "+id+" before <i>a2</i>")
	if out := run(t, sh, "values /list/i"); out != "a\na2\nb\nc" {
		t.Errorf("after insert: %q", out)
	}
	out = run(t, sh, "query /list/i[1]/text()")
	textID := strings.Fields(out)[0]
	run(t, sh, "set "+textID+" alpha")
	if out := run(t, sh, "values /list/i[1]"); out != "alpha" {
		t.Errorf("after set: %q", out)
	}
	out = run(t, sh, "query /list/i[4]")
	lastID := strings.Fields(out)[0]
	run(t, sh, "rename "+lastID+" z")
	if out := run(t, sh, "values /list/z"); out != "c" {
		t.Errorf("after rename: %q", out)
	}
	out = run(t, sh, "query /list/z")
	zID := strings.Fields(out)[0]
	out = run(t, sh, "query /list/i[1]")
	firstID := strings.Fields(out)[0]
	run(t, sh, "move "+zID+" "+firstID+" before")
	if out := run(t, sh, "serialize"); !strings.HasPrefix(out, "<list><z>c</z>") {
		t.Errorf("after move: %s", out)
	}
	out = run(t, sh, "query /list/i[2]")
	run(t, sh, "delete "+strings.Fields(out)[0])

	// Stats and docs listing.
	out = run(t, sh, "stats")
	if !strings.Contains(out, "storage:") ||
		!regexp.MustCompile(`work: [1-9]\d* probes, \d+ scanned, [1-9]\d* ins, [1-9]\d* del, [1-9]\d* upd`).MatchString(out) {
		t.Errorf("stats: %s", out)
	}
	if out := run(t, sh, "docs"); !strings.Contains(out, "* 1") {
		t.Errorf("docs: %s", out)
	}

	// Error paths with arguments.
	mustFail(t, sh, "insert 1 sideways <x/>")
	mustFail(t, sh, "insert notanid before <x/>")
	mustFail(t, sh, "delete 9999")
	mustFail(t, sh, "use")
	mustFail(t, sh, "sql DELETE FROM xd_nodes")
}

func TestShellMultipleDocuments(t *testing.T) {
	sh := &shell{}
	run(t, sh, "open local")
	run(t, sh, "loadstr <a>one</a>")
	run(t, sh, "loadstr <b>two</b>")
	if out := run(t, sh, "values /b"); out != "two" {
		t.Errorf("current doc: %q", out)
	}
	run(t, sh, "use 1")
	if out := run(t, sh, "values /a"); out != "one" {
		t.Errorf("after use 1: %q", out)
	}
}

func TestShellLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(path, []byte("<a><b>x</b></a>"), 0o644); err != nil {
		t.Fatal(err)
	}
	sh := &shell{}
	run(t, sh, "open global")
	run(t, sh, "load "+path+" mydoc")
	if out := run(t, sh, "values /a/b"); out != "x" {
		t.Errorf("values = %q", out)
	}
	if out := run(t, sh, "docs"); !strings.Contains(out, "mydoc") {
		t.Errorf("docs = %q", out)
	}
	mustFail(t, sh, "load /nonexistent.xml")
	if out := run(t, sh, "check"); out != "consistent" {
		t.Errorf("check = %q", out)
	}
}

// TestShellDurableStore covers a durable store's share of the shell: the
// opendur banner, the wal: and bufpool: lines \stats and stats read from the
// wal.* and bufpool.* metrics, \checkpoint flushing dirty pages and rotating
// the log, and recovery in a fresh shell.
func TestShellDurableStore(t *testing.T) {
	dir := t.TempDir()
	sh := &shell{}
	if out := run(t, sh, "opendur "+dir+" dewey 0 32"); out != "opened durable dewey store in "+dir+" (0 document(s) recovered)" {
		t.Errorf("opendur = %q", out)
	}
	run(t, sh, "loadstr <a><b>x</b></a>")
	bufpool := regexp.MustCompile(`bufpool: [1-9]\d*/32 frames resident \([1-9]\d* dirty, 0 pinned\), \d+\.\d% hit ratio`)
	out := run(t, sh, `\stats`)
	if !strings.Contains(out, "wal: 1 records") ||
		!strings.Contains(out, "1 fsyncs, 0 rotations, last LSN 1, durable LSN 1,") ||
		!strings.Contains(out, "last checkpoint never") {
		t.Errorf("\\stats lacks WAL summary: %.300q", out)
	}
	if !bufpool.MatchString(out) {
		t.Errorf("\\stats lacks buffer-pool summary: %.300q", out)
	}
	if out := run(t, sh, "stats"); !bufpool.MatchString(out) {
		t.Errorf("stats lacks buffer-pool summary: %q", out)
	}
	if out := run(t, sh, `\checkpoint`); !strings.Contains(out, "dirty pages flushed, log rotated after LSN 1") {
		t.Errorf("\\checkpoint = %q", out)
	}
	out = run(t, sh, `\stats`)
	if !strings.Contains(out, "1 rotations") || strings.Contains(out, "last checkpoint never") {
		t.Errorf("\\stats after checkpoint: %.300q", out)
	}
	if !regexp.MustCompile(`\(0 dirty, 0 pinned\).* [1-9]\d* dirty flushes`).MatchString(out) {
		t.Errorf("\\stats after checkpoint: %.300q", out)
	}
	run(t, sh, "insert 2 after <c>y</c>")

	// A fresh shell, with the default pool, recovers the checkpoint plus the
	// post-checkpoint insert.
	sh2 := &shell{}
	if out := run(t, sh2, "opendur "+dir); !strings.Contains(out, "1 document(s) recovered") {
		t.Errorf("opendur = %q", out)
	}
	if out := run(t, sh2, "serialize"); out != "<a><b>x</b><c>y</c></a>" {
		t.Errorf("recovered doc = %q", out)
	}
	mustFail(t, sh2, "opendur")
	// Memory stores refuse \checkpoint and have no pool to report.
	sh3 := &shell{}
	run(t, sh3, "open global")
	mustFail(t, sh3, `\checkpoint`)
	if out := run(t, sh3, "stats"); strings.Contains(out, "bufpool:") {
		t.Errorf("memory store's stats = %q", out)
	}
}

// TestShellTraceQuery covers `trace <xpath>`: the table is folded from the
// query's own span records — one row per span name with total time and
// count — and the tracer is left as it was found.
func TestShellTraceQuery(t *testing.T) {
	sh := &shell{}
	run(t, sh, "open global")
	run(t, sh, "loadstr <a><b><c>1</c><c>2</c></b><b><c>3</c></b></a>")
	spans := func(out string) string {
		var names []string
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) == 3 && strings.HasPrefix(f[2], "x") {
				names = append(names, f[0])
			}
		}
		return strings.Join(names, " ")
	}
	out := run(t, sh, "trace /a/b[1]//c")
	got := spans(out)
	for _, want := range []string{"parse translate segment sql.query plan", "positional", "op.ParamScan", "op.Sort"} {
		if !strings.Contains(got, want) {
			t.Errorf("trace rows %q lack %q", got, want)
		}
	}
	// The final statement's ORDER BY is a Global result's order; only a
	// final ancestor step, whose nodes come in context order, sorts here.
	if got := spans(run(t, sh, "trace //c/ancestor::b")); !strings.Contains(got, " sort") {
		t.Errorf("trace rows %q lack the client-side sort", got)
	}
	// /a/b[1] and //c are one segment each.
	if !regexp.MustCompile(`segment +\S+ +x2\n`).MatchString(out) || !strings.HasSuffix(out, "2 match(es)") {
		t.Errorf("trace = %q", out)
	}
	if out := run(t, sh, `\trace status`); !strings.HasPrefix(out, "tracing off") {
		t.Errorf("trace left the tracer on: %q", out)
	}
	run(t, sh, `\trace on`)
	run(t, sh, "trace /a/b")
	if out := run(t, sh, `\trace status`); !strings.HasPrefix(out, "tracing on") {
		t.Errorf("trace switched the tracer off: %q", out)
	}
}

// TestShellSnapshotStats covers the concurrent-readers surface: the snapshot
// summary line of \stats, which moves with every published view, and the
// per-operator actuals of \analyze.
func TestShellSnapshotStats(t *testing.T) {
	sh := &shell{}
	run(t, sh, "open global")
	summary := regexp.MustCompile(`^snapshot: version (\d+), (\d+) publishes\n`)
	publishes := func() int {
		t.Helper()
		out := run(t, sh, `\stats`)
		m := summary.FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("\\stats lacks the snapshot summary line: %.120q", out)
		}
		if !strings.Contains(out, "sqldb.view.publishes") || !strings.Contains(out, "sqldb.view.version") {
			t.Errorf("\\stats lacks the view metrics: %.200q", out)
		}
		n, _ := strconv.Atoi(m[2])
		return n
	}
	before := publishes()
	run(t, sh, "loadstr <catalog><item>v</item><item>w</item></catalog>")
	if after := publishes(); after <= before {
		t.Errorf("publishes %d -> %d across a load, want growth", before, after)
	}

	out := run(t, sh, `\analyze SELECT kind, COUNT(*) FROM xg_nodes GROUP BY kind ORDER BY kind`)
	if !strings.Contains(out, "HashAggregate") || !strings.Contains(out, "(actual rows=") {
		t.Errorf("\\analyze lacks operator actuals:\n%s", out)
	}
}

func TestShellTimeoutCommand(t *testing.T) {
	sh := &shell{}
	mustFail(t, sh, `\timeout 1s`) // no store yet
	run(t, sh, "open dewey")
	run(t, sh, "loadstr <a><b>x</b></a>")
	if out := run(t, sh, `\timeout`); out != "no query timeout" {
		t.Errorf("\\timeout: %q", out)
	}
	if out := run(t, sh, `\timeout 250ms`); !strings.Contains(out, "250ms") {
		t.Errorf("\\timeout 250ms: %q", out)
	}
	if out := run(t, sh, `\timeout`); !strings.Contains(out, "250ms") {
		t.Errorf("\\timeout status: %q", out)
	}
	mustFail(t, sh, `\timeout -5s`)
	mustFail(t, sh, `\timeout soon`)
	if out := run(t, sh, `\timeout 0`); !strings.Contains(out, "removed") {
		t.Errorf("\\timeout 0: %q", out)
	}
	if out := run(t, sh, "query /a/b"); !strings.Contains(out, "1 match(es)") {
		t.Errorf("query after timeout removal: %q", out)
	}
}
