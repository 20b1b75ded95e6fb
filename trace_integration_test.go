package ordxml_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ordxml"
)

// flatDoc builds a flat document of 1+2*n nodes for n items.
func flatDoc(items int) string {
	var b strings.Builder
	b.WriteString("<catalog>")
	for i := 0; i < items; i++ {
		fmt.Fprintf(&b, "<item>v%d</item>", i)
	}
	b.WriteString("</catalog>")
	return b.String()
}

// spanIndex makes parent-chain walks over a trace snapshot cheap.
type spanIndex struct {
	byID   map[uint64]ordxml.SpanRecord
	byName map[string][]ordxml.SpanRecord
}

func indexSpans(recs []ordxml.SpanRecord) *spanIndex {
	ix := &spanIndex{byID: map[uint64]ordxml.SpanRecord{}, byName: map[string][]ordxml.SpanRecord{}}
	for _, r := range recs {
		ix.byID[r.ID] = r
		ix.byName[r.Name] = append(ix.byName[r.Name], r)
	}
	return ix
}

// rootOf follows parent links to the trace root's name.
func (ix *spanIndex) rootOf(r ordxml.SpanRecord) string {
	for r.Parent != 0 {
		p, ok := ix.byID[r.Parent]
		if !ok {
			return "" // parent fell out of the ring
		}
		r = p
	}
	return r.Name
}

// TestTraceSpanTreeAcceptance is the PR's acceptance check: a traced XPath
// query on a durable, pooled store yields a span tree containing the planner
// span, operator spans under their statement, and WAL/buffer-pool child spans
// from the surrounding load — and the whole buffer exports as Chrome
// trace-event JSON, one track per trace.
func TestTraceSpanTreeAcceptance(t *testing.T) {
	s, err := ordxml.OpenDurable(t.TempDir(), ordxml.Options{Encoding: ordxml.Global, BufferPoolFrames: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	s.Tracer().SetEnabled(true)
	id, err := s.LoadString("big", flatDoc(1500))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(id, "/catalog/item"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SQL(`SELECT kind, COUNT(*) n FROM xg_nodes GROUP BY kind ORDER BY kind`); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	ix := indexSpans(s.Tracer().Snapshot())

	// The XPath pipeline: root with parse/translate/segment/sort children and
	// a planner span somewhere beneath it.
	if len(ix.byName["xpath.query"]) == 0 {
		t.Fatal("no xpath.query root span")
	}
	for _, stage := range []string{"parse", "translate", "segment"} {
		found := false
		for _, r := range ix.byName[stage] {
			if ix.rootOf(r) == "xpath.query" {
				found = true
			}
		}
		if !found {
			t.Errorf("no %q span under an xpath.query root", stage)
		}
	}
	planRoots := map[string]bool{}
	for _, r := range ix.byName["plan"] {
		planRoots[ix.rootOf(r)] = true
	}
	if !planRoots["xpath.query"] {
		t.Error("no planner span under an xpath.query root")
	}

	// The raw-SQL aggregate's operators hang off its statement span, in the
	// statement's trace.
	if len(ix.byName["op.HashAggregate"]) == 0 {
		t.Error("no op.HashAggregate span")
	}
	for _, r := range ix.byName["op.HashAggregate"] {
		stmt, ok := ix.byID[r.Parent]
		for ok && stmt.Name != "sql.query" {
			stmt, ok = ix.byID[stmt.Parent]
		}
		if !ok || stmt.Trace != r.Trace {
			t.Errorf("op.HashAggregate span %d is not under a sql.query span of its trace", r.ID)
		}
	}

	// WAL and buffer-pool attribution: the load appended under its root, and
	// the checkpoint flushed the pool.
	if len(ix.byName["wal.append_sync"]) == 0 {
		t.Error("no wal.append_sync span (load/mutations not attributed)")
	} else if got := ix.rootOf(ix.byName["wal.append_sync"][0]); got != "store.load" && got != "store.exec" {
		t.Errorf("wal.append_sync rooted at %q", got)
	}
	if len(ix.byName["checkpoint"]) == 0 || len(ix.byName["bufpool.flush_all"]) == 0 {
		t.Error("checkpoint span tree incomplete")
	}

	// The buffer exports as Chrome trace-event JSON.
	var buf bytes.Buffer
	n, err := s.WriteTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("WriteTrace reported zero spans")
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  uint64         `json:"pid"`
			Tid  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not Chrome JSON: %v", err)
	}
	if len(doc.TraceEvents) != n {
		t.Fatalf("traceEvents = %d, WriteTrace reported %d", len(doc.TraceEvents), n)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" && ev.Ph != "i" {
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
		if ev.Tid != ev.Pid {
			t.Fatalf("event %q on track %d of trace %d, want one track per trace", ev.Name, ev.Tid, ev.Pid)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"xpath.query", "plan", "op.HashAggregate", "wal.append_sync"} {
		if !names[want] {
			t.Errorf("chrome export missing %q event", want)
		}
	}
}

// TestTraceDisabledByDefault locks the zero-overhead contract: with the
// tracer off (the default), no spans are buffered by queries or mutations.
func TestTraceDisabledByDefault(t *testing.T) {
	s, err := ordxml.Open(ordxml.Options{Encoding: ordxml.Dewey})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.LoadString("d", "<list><i>a</i><i>b</i></list>")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(id, "/list/i[2]"); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Tracer().Snapshot()); n != 0 {
		t.Fatalf("tracer off but %d spans buffered", n)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents"`) {
		t.Fatalf("empty trace export malformed: %s", buf.String())
	}
}

// TestTraceNestedMutationJoinsTrace ensures engine-internal calls join the
// ambient trace instead of opening nested roots: one Insert produces exactly
// one store.insert root.
func TestTraceNestedMutationJoinsTrace(t *testing.T) {
	s, err := ordxml.Open(ordxml.Options{Encoding: ordxml.Dewey})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.LoadString("d", "<list><i>a</i><i>b</i></list>")
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := s.Query(id, "/list/i[1]")
	if err != nil || len(nodes) != 1 {
		t.Fatalf("query: %v (%d nodes)", err, len(nodes))
	}
	s.Tracer().SetEnabled(true)
	if _, err := s.Insert(id, nodes[0].ID, ordxml.Before, "<i>a0</i>"); err != nil {
		t.Fatal(err)
	}
	roots := 0
	for _, r := range s.Tracer().Snapshot() {
		if r.Parent == 0 {
			if r.Name != "store.insert" {
				t.Errorf("unexpected root %q", r.Name)
			}
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("insert produced %d roots, want 1", roots)
	}
}
