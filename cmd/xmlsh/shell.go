package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ordxml"
)

// shell is the interactive session state: one store, one current document.
// Commands are parsed and executed by Execute, which returns the text to
// print — keeping the interpreter separate from the REPL loop makes it
// testable.
//
// mu guards the store pointer only: Execute (the single command goroutine)
// swaps it on open/opendur while the debug HTTP endpoint reads it
// concurrently. The Store itself is safe for concurrent readers.
type shell struct {
	mu    sync.RWMutex
	store *ordxml.Store
	doc   ordxml.DocID
}

// setStore swaps the active store (open/opendur), releasing the
// previous store's write-ahead log if it was durable.
func (sh *shell) setStore(st *ordxml.Store) {
	sh.mu.Lock()
	old := sh.store
	sh.store = st
	sh.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// currentStore returns the active store for concurrent readers (the debug
// endpoint); nil when none is open.
func (sh *shell) currentStore() *ordxml.Store {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.store
}

// helpText lists every command.
const helpText = `commands:
  open <global|local|dewey> [gap]   start a fresh store
  opendur <dir> [enc] [gap] [pool]  open a durable store (write-ahead logged,
                                    crash-recovered from <dir>; pool sizes
                                    its buffer pool in 8 KiB frames)
  load <file> [name]                load an XML file as the current document
  loadstr <xml>                     load inline XML
  docs                              list documents (switch with: use <id>)
  use <id>                          select the current document
  query <xpath>                     run a query; prints node ids and order keys
  values <xpath>                    run a query; prints string values
  explain <xpath>                   show the generated SQL
  sql <select ...>                  raw SELECT against the store's relations
  insert <id> <first|last|before|after> <xml>   insert a fragment
  delete <id>                       delete a subtree
  move <id> <target> <first|last|before|after>  relocate a subtree
  set <id> <value>                  set a text/attribute value
  rename <id> <name>                rename an element/attribute
  serialize [id]                    print the document (or subtree) as XML
  check                             verify the document's storage invariants
  \check                            deep store-wide integrity check (all
                                    documents, heap pages, B+tree indexes)
  stats                             storage and work-counter summary
  \timeout <dur>                    session query timeout for reads (e.g. 500ms;
                                    0 removes it; no argument shows the current)
  \explain <select ...>             show the SQL engine's physical plan
  \analyze <select ...>             run with EXPLAIN ANALYZE instrumentation
                                    (actual rows, loops and time per operator)
  \stats                            engine metrics (counters, latency histograms;
                                    snapshot version/publishes, WAL activity and
                                    buffer-pool hit/eviction figures for durable
                                    stores)
  \checkpoint                       checkpoint a durable store and rotate its log
  \slow                             slow-query log
  \trace on|off|status|clear        request tracing: record a span tree per
  \trace dump <file>                query/update into a bounded buffer, dump
                                    as Chrome trace-event JSON (Perfetto)
  trace <xpath>                     run a query; prints time and count per span name
  help                              this text
  quit                              exit`

// positions maps the command spelling to insert positions.
var positions = map[string]ordxml.Position{
	"first": ordxml.FirstChild, "last": ordxml.LastChild,
	"before": ordxml.Before, "after": ordxml.After,
}

// Execute runs one command line and returns its output.
func (sh *shell) Execute(line string) (string, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", nil
	}
	cmd, args := fields[0], fields[1:]
	rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), cmd))

	switch cmd {
	case "help":
		return helpText, nil
	case "open":
		if len(args) < 1 {
			return "", fmt.Errorf("usage: open <global|local|dewey> [gap]")
		}
		enc, err := ordxml.ParseEncoding(args[0])
		if err != nil {
			return "", err
		}
		var gap uint64
		if len(args) > 1 {
			if gap, err = strconv.ParseUint(args[1], 10, 32); err != nil {
				return "", fmt.Errorf("bad gap %q", args[1])
			}
		}
		store, err := ordxml.Open(ordxml.Options{Encoding: enc, Gap: uint32(gap)})
		if err != nil {
			return "", err
		}
		sh.setStore(store)
		sh.doc = 0
		return fmt.Sprintf("opened empty %s store", enc), nil
	case "opendur":
		if len(args) < 1 {
			return "", fmt.Errorf("usage: opendur <dir> [global|local|dewey] [gap] [poolframes]")
		}
		enc := ordxml.Dewey
		var err error
		if len(args) > 1 {
			if enc, err = ordxml.ParseEncoding(args[1]); err != nil {
				return "", err
			}
		}
		var gap uint64
		if len(args) > 2 {
			if gap, err = strconv.ParseUint(args[2], 10, 32); err != nil {
				return "", fmt.Errorf("bad gap %q", args[2])
			}
		}
		var frames int
		if len(args) > 3 {
			if frames, err = strconv.Atoi(args[3]); err != nil || frames < 1 {
				return "", fmt.Errorf("bad pool frame count %q", args[3])
			}
		}
		store, err := ordxml.OpenDurable(args[0], ordxml.Options{
			Encoding: enc, Gap: uint32(gap), BufferPoolFrames: frames,
		})
		if err != nil {
			return "", err
		}
		sh.setStore(store)
		sh.doc = 0
		docs, err := store.Documents()
		if err != nil {
			return "", err
		}
		if len(docs) > 0 {
			sh.doc = docs[0].ID
		}
		return fmt.Sprintf("opened durable %s store in %s (%d document(s) recovered)",
			store.Encoding(), args[0], len(docs)), nil
	}

	if sh.store == nil {
		return "", fmt.Errorf("no store open (use: open dewey)")
	}

	switch cmd {
	case "load":
		if len(args) < 1 {
			return "", fmt.Errorf("usage: load <file> [name]")
		}
		name := args[0]
		if len(args) > 1 {
			name = args[1]
		}
		f, err := os.Open(args[0])
		if err != nil {
			return "", err
		}
		defer f.Close()
		doc, err := sh.store.Load(name, f)
		if err != nil {
			return "", err
		}
		sh.doc = doc
		return fmt.Sprintf("loaded document %d", doc), nil
	case "loadstr":
		if rest == "" {
			return "", fmt.Errorf("usage: loadstr <xml>")
		}
		doc, err := sh.store.LoadString("inline", rest)
		if err != nil {
			return "", err
		}
		sh.doc = doc
		return fmt.Sprintf("loaded document %d", doc), nil
	case "docs":
		docs, err := sh.store.Documents()
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		for _, d := range docs {
			marker := " "
			if d.ID == sh.doc {
				marker = "*"
			}
			fmt.Fprintf(&sb, "%s %d\t%s\t%d nodes\n", marker, d.ID, d.Name, d.Nodes)
		}
		return strings.TrimRight(sb.String(), "\n"), nil
	case "use":
		id, err := parseID(args, 0, "use <id>")
		if err != nil {
			return "", err
		}
		sh.doc = id
		return fmt.Sprintf("using document %d", id), nil
	case "stats":
		st := sh.store.Storage()
		g := sh.store.Metrics().Gauges
		out := fmt.Sprintf("storage: %d rows, %d pages, %d bytes\nwork: %d probes, %d scanned, %d ins, %d del, %d upd",
			st.Rows, st.HeapPages, st.HeapBytes,
			g["storage.index_probes"], g["storage.rows_scanned"],
			g["storage.rows_inserted"], g["storage.rows_deleted"], g["storage.rows_updated"])
		if sh.store.Durable() {
			out += "\n" + bufpoolLine(g)
		}
		return out, nil
	case `\timeout`:
		if len(args) == 0 {
			if d := sh.store.QueryTimeout(); d > 0 {
				return fmt.Sprintf("query timeout %s", d), nil
			}
			return "no query timeout", nil
		}
		d, err := time.ParseDuration(args[0])
		if err != nil && args[0] == "0" {
			d, err = 0, nil
		}
		if err != nil || d < 0 {
			return "", fmt.Errorf("bad timeout %q (want a duration like 500ms, or 0)", args[0])
		}
		sh.store.SetQueryTimeout(d)
		if d == 0 {
			return "query timeout removed", nil
		}
		return fmt.Sprintf("query timeout set to %s (reads past it fail with %v)", d, ordxml.ErrDeadlineExceeded), nil
	case `\explain`:
		if rest == "" {
			return "", fmt.Errorf(`usage: \explain <select ...>`)
		}
		text, err := sh.store.ExplainSQL(rest)
		if err != nil {
			return "", err
		}
		return strings.TrimRight(text, "\n"), nil
	case `\analyze`:
		if rest == "" {
			return "", fmt.Errorf(`usage: \analyze <select ...>`)
		}
		text, err := sh.store.ExplainAnalyzeSQL(rest)
		if err != nil {
			return "", err
		}
		return strings.TrimRight(text, "\n"), nil
	case `\stats`:
		m := sh.store.Metrics()
		out := fmt.Sprintf("snapshot: version %d, %d publishes\n%s",
			m.Gauges["sqldb.view.version"], m.Counters["sqldb.view.publishes"],
			renderMetrics(m))
		c, g := m.Counters, m.Gauges
		if sh.store.Durable() {
			ckpt := "never"
			if age := g["wal.checkpoint_age_ms"]; age >= 0 {
				ckpt = (time.Duration(age) * time.Millisecond).String() + " ago"
			}
			out = fmt.Sprintf("wal: %d records (%d bytes), %d fsyncs, %d rotations, last LSN %d, durable LSN %d, %d bytes on disk, last checkpoint %s\n%s",
				c["wal.appends"], c["wal.append.bytes"], c["wal.fsyncs"], c["wal.rotations"],
				g["wal.last_lsn"], g["wal.last_lsn"]-g["wal.durable_lag"], g["wal.size_bytes"], ckpt, out)
			out = bufpoolLine(g) + "\n" + out
		}
		if ok, cause := sh.store.Degraded(); ok {
			out = fmt.Sprintf("DEGRADED: read-only (%s); reads serve, mutations fail, reopen to recover\n%s", cause, out)
		}
		return out, nil
	case `\checkpoint`:
		if err := sh.store.Checkpoint(); err != nil {
			return "", err
		}
		return fmt.Sprintf("checkpoint complete (dirty pages flushed, log rotated after LSN %d)",
			sh.store.Metrics().Gauges["wal.last_lsn"]), nil
	case `\trace`:
		if len(args) == 0 {
			return "", fmt.Errorf(`usage: \trace on|off|status|clear|dump <file>`)
		}
		tr := sh.store.Tracer()
		switch args[0] {
		case "on":
			tr.SetEnabled(true)
			return "request tracing on (run queries, then: \\trace dump <file>)", nil
		case "off":
			tr.SetEnabled(false)
			return "request tracing off", nil
		case "status":
			state := "off"
			if tr.Enabled() {
				state = "on"
			}
			return fmt.Sprintf("tracing %s: %d span(s) buffered (capacity %d, %d overwritten)",
				state, len(tr.Snapshot()), tr.Capacity(), tr.Dropped()), nil
		case "clear":
			tr.Reset()
			return "trace buffer cleared", nil
		case "dump":
			if len(args) != 2 {
				return "", fmt.Errorf(`usage: \trace dump <file>`)
			}
			f, err := os.Create(args[1])
			if err != nil {
				return "", err
			}
			n, werr := sh.store.WriteTrace(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return "", werr
			}
			return fmt.Sprintf("wrote %d span(s) to %s (Chrome trace format — open in Perfetto)", n, args[1]), nil
		default:
			return "", fmt.Errorf(`usage: \trace on|off|status|clear|dump <file>`)
		}
	case `\slow`:
		slow := sh.store.SlowQueries()
		if len(slow) == 0 {
			return "slow-query log empty", nil
		}
		var sb strings.Builder
		for _, q := range slow {
			rows := "-"
			if q.Rows >= 0 {
				rows = strconv.Itoa(q.Rows)
			}
			fmt.Fprintf(&sb, "%-12s rows=%-6s %s\n", q.Duration, rows, q.SQL)
		}
		return strings.TrimRight(sb.String(), "\n"), nil
	}

	if sh.doc == 0 {
		return "", fmt.Errorf("no document loaded (use: loadstr <xml>)")
	}

	switch cmd {
	case "query":
		nodes, err := sh.store.Query(sh.doc, rest)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		for _, n := range nodes {
			label := "<" + n.Tag + ">"
			switch n.Kind {
			case ordxml.AttributeNode:
				label = "@" + n.Tag + "=" + n.Value
			case ordxml.TextNode:
				label = strconv.Quote(n.Value)
			}
			fmt.Fprintf(&sb, "#%d\t%s\torder=%s\n", n.ID, label, n.OrderKey)
		}
		fmt.Fprintf(&sb, "%d match(es)", len(nodes))
		return sb.String(), nil
	case "values":
		vals, err := sh.store.QueryValues(sh.doc, rest)
		if err != nil {
			return "", err
		}
		return strings.Join(vals, "\n"), nil
	case "explain":
		sqls, err := sh.store.ExplainQuery(sh.doc, rest)
		if err != nil {
			return "", err
		}
		return strings.Join(sqls, "\n"), nil
	case "trace":
		return sh.traceQuery(rest)
	case "sql":
		rows, err := sh.store.SQL(rest)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		sb.WriteString(strings.Join(rows.Columns, "\t"))
		for _, r := range rows.Values {
			sb.WriteString("\n" + strings.Join(r, "\t"))
		}
		return sb.String(), nil
	case "insert":
		if len(args) < 3 {
			return "", fmt.Errorf("usage: insert <id> <first|last|before|after> <xml>")
		}
		id, err := parseID(args, 0, "")
		if err != nil {
			return "", err
		}
		pos, ok := positions[args[1]]
		if !ok {
			return "", fmt.Errorf("bad position %q (want %s)", args[1], positionNames())
		}
		frag := strings.TrimSpace(strings.SplitN(rest, args[1], 2)[1])
		rep, err := sh.store.Insert(sh.doc, id, pos, frag)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("inserted %d node(s) as #%d, renumbered %d row(s)",
			rep.RowsInserted, rep.NewID, rep.RowsRenumbered), nil
	case "delete":
		id, err := parseID(args, 0, "delete <id>")
		if err != nil {
			return "", err
		}
		rep, err := sh.store.Delete(sh.doc, id)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("deleted %d row(s)", rep.RowsDeleted), nil
	case "move":
		if len(args) != 3 {
			return "", fmt.Errorf("usage: move <id> <target> <first|last|before|after>")
		}
		id, err := parseID(args, 0, "")
		if err != nil {
			return "", err
		}
		target, err := parseID(args, 1, "")
		if err != nil {
			return "", err
		}
		pos, ok := positions[args[2]]
		if !ok {
			return "", fmt.Errorf("bad position %q (want %s)", args[2], positionNames())
		}
		rep, err := sh.store.Move(sh.doc, id, target, pos)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("moved as #%d, renumbered %d row(s)", rep.NewID, rep.RowsRenumbered), nil
	case "set":
		if len(args) < 2 {
			return "", fmt.Errorf("usage: set <id> <value>")
		}
		id, err := parseID(args, 0, "")
		if err != nil {
			return "", err
		}
		value := strings.TrimSpace(strings.TrimPrefix(rest, args[0]))
		if err := sh.store.SetValue(sh.doc, id, value); err != nil {
			return "", err
		}
		return "ok", nil
	case "rename":
		if len(args) != 2 {
			return "", fmt.Errorf("usage: rename <id> <name>")
		}
		id, err := parseID(args, 0, "")
		if err != nil {
			return "", err
		}
		if err := sh.store.Rename(sh.doc, id, args[1]); err != nil {
			return "", err
		}
		return "ok", nil
	case "check":
		problems, err := sh.store.Check(sh.doc)
		if err != nil {
			return "", err
		}
		if len(problems) == 0 {
			return "consistent", nil
		}
		return strings.Join(problems, "\n"), nil
	case `\check`:
		problems, err := sh.store.CheckIntegrity()
		if err != nil {
			return "", err
		}
		if len(problems) == 0 {
			return "store consistent (all documents, heaps and indexes)", nil
		}
		return strings.Join(problems, "\n"), nil
	case "serialize":
		if len(args) == 1 {
			id, err := parseID(args, 0, "")
			if err != nil {
				return "", err
			}
			return sh.store.Serialize(sh.doc, id)
		}
		return sh.store.SerializeDocument(sh.doc)
	default:
		return "", fmt.Errorf("unknown command %q (try: help)", cmd)
	}
}

// traceQuery runs one query under a request trace of its own — switching the
// tracer on for the call if it is off — and folds the trace's spans by name:
// total time and span count per name, in order of first start. Spans nest
// (a segment contains its sql.query spans, those their plan and operator
// spans), so the totals overlap; `\trace dump` gives the tree.
func (sh *shell) traceQuery(xpath string) (string, error) {
	tr := sh.store.Tracer()
	if !tr.Enabled() {
		tr.SetEnabled(true)
		defer tr.SetEnabled(false)
	}
	ctx, root := tr.StartRoot(context.Background(), "xmlsh.trace")
	nodes, err := sh.store.QueryCtx(ctx, sh.doc, xpath)
	root.End()
	if err != nil {
		return "", err
	}
	var spans []ordxml.SpanRecord
	kept := 0
	for _, r := range tr.Snapshot() {
		if r.Trace != root.TraceID() {
			continue
		}
		kept++
		if r.ID != root.SpanID() && !r.Instant {
			spans = append(spans, r)
		}
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	type fold struct {
		dur   time.Duration
		count int
	}
	folds := map[string]*fold{}
	var names []string
	for _, r := range spans {
		f := folds[r.Name]
		if f == nil {
			f = &fold{}
			folds[r.Name] = f
			names = append(names, r.Name)
		}
		f.dur += r.Dur
		f.count++
	}
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, "%-14s %-12s x%d\n", n, folds[n].dur, folds[n].count)
	}
	if kept >= tr.Capacity() {
		fmt.Fprintf(&sb, "(the query outran the trace buffer: only its last %d spans are counted)\n", kept)
	}
	fmt.Fprintf(&sb, "%d match(es)", len(nodes))
	return sb.String(), nil
}

func parseID(args []string, i int, usage string) (int64, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("usage: %s", usage)
	}
	id, err := strconv.ParseInt(strings.TrimPrefix(args[i], "#"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad node id %q", args[i])
	}
	return id, nil
}

// bufpoolLine summarizes a durable store's buffer pool from its bufpool.*
// gauges.
func bufpoolLine(g map[string]int64) string {
	hits, misses := g["bufpool.hits"], g["bufpool.misses"]
	hitPct := 0.0
	if acc := hits + misses; acc > 0 {
		hitPct = 100 * float64(hits) / float64(acc)
	}
	return fmt.Sprintf("bufpool: %d/%d frames resident (%d dirty, %d pinned), %.1f%% hit ratio (%d hits, %d misses), %d evictions, %d dirty flushes",
		g["bufpool.resident_frames"], g["bufpool.capacity"], g["bufpool.dirty_frames"], g["bufpool.pinned_frames"],
		hitPct, hits, misses, g["bufpool.evictions"], g["bufpool.dirty_flushes"])
}

// renderMetrics formats a metrics snapshot: counters and gauges one per
// line, then histograms with count/mean/quantiles.
func renderMetrics(m ordxml.Metrics) string {
	var sb strings.Builder
	for _, n := range m.CounterNames() {
		fmt.Fprintf(&sb, "%-32s %d\n", n, m.Counters[n])
	}
	for _, n := range m.GaugeNames() {
		fmt.Fprintf(&sb, "%-32s %d\n", n, m.Gauges[n])
	}
	for _, n := range m.HistogramNames() {
		h := m.Histograms[n]
		fmt.Fprintf(&sb, "%-32s count=%d mean=%s p50=%s p95=%s p99=%s max=%s\n",
			n, h.Count, h.Mean(), h.P50, h.P95, h.P99, h.Max)
	}
	return strings.TrimRight(sb.String(), "\n")
}

func positionNames() string {
	names := make([]string, 0, len(positions))
	for n := range positions {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
