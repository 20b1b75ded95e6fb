package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"sync"
	"testing"
	"time"
)

// fakeClock installs a deterministic clock on the tracer: each now() call
// advances by one millisecond from the Unix epoch.
func fakeClock(t *Tracer) {
	var clk time.Time = time.Unix(0, 0).UTC()
	t.now = func() time.Time {
		clk = clk.Add(time.Millisecond)
		return clk
	}
}

func TestTracerDisabledIsFree(t *testing.T) {
	tr := NewTracer(16)
	ctx, sp := tr.StartRoot(context.Background(), "root")
	if sp != nil {
		t.Fatal("disabled tracer returned a live span")
	}
	if got := FromContext(ctx); got != nil {
		t.Fatal("disabled StartRoot attached a span to ctx")
	}
	// The whole nil-safe method surface must be a no-op.
	sp.MarkStart()
	sp.Arg("k", 1).ArgStr("s", "v").End()
	sp.Event("e")
	sp.End()
	if _, child := StartSpan(ctx, "child"); child != nil {
		t.Fatal("StartSpan without ambient span returned a live span")
	}
	if n := len(tr.Snapshot()); n != 0 {
		t.Fatalf("disabled tracer recorded %d spans", n)
	}
	if sp.TraceID() != 0 || sp.SpanID() != 0 {
		t.Fatal("nil span has non-zero IDs")
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() || tr.Capacity() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer not inert")
	}
	tr.SetEnabled(true)
	tr.Reset()
	_, sp := tr.StartRoot(context.Background(), "root")
	if sp != nil {
		t.Fatal("nil tracer returned a live span")
	}
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v", got)
	}
}

func TestSpanTreeRecording(t *testing.T) {
	tr := NewTracer(16)
	fakeClock(tr)
	tr.SetEnabled(true)

	ctx, root := tr.StartRoot(context.Background(), "root") // start 1ms
	if root == nil {
		t.Fatal("enabled tracer returned nil root")
	}
	if FromContext(ctx) != root {
		t.Fatal("root not attached to ctx")
	}
	ctx2, child := StartSpan(ctx, "child") // start 2ms
	if child == nil || FromContext(ctx2) != child {
		t.Fatal("child not attached to ctx")
	}
	child.Arg("rows", 7)
	child.End()                                 // end 3ms, dur 1ms
	root.Event("note", Arg{Key: "k", Val: "v"}) // 4ms
	root.End()                                  // end 5ms, dur 4ms
	root.End()                                  // double End is a no-op

	recs := tr.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	rr, cr, er := byName["root"], byName["child"], byName["note"]
	if rr.Parent != 0 || rr.Trace == 0 {
		t.Fatalf("root record = %+v", rr)
	}
	if cr.Parent != rr.ID || cr.Trace != rr.Trace {
		t.Fatalf("child does not nest under root: %+v vs %+v", cr, rr)
	}
	if cr.Dur != time.Millisecond {
		t.Fatalf("child dur = %v, want 1ms", cr.Dur)
	}
	if !er.Instant || er.Parent != rr.ID || er.Trace != rr.Trace {
		t.Fatalf("event record = %+v", er)
	}
	if rr.Dur != 4*time.Millisecond {
		t.Fatalf("root dur = %v, want 4ms", rr.Dur)
	}
}

func TestMarkStart(t *testing.T) {
	tr := NewTracer(4)
	fakeClock(tr)
	tr.SetEnabled(true)
	_, sp := tr.StartRoot(context.Background(), "op") // 1ms
	sp.MarkStart()                                    // 2ms
	sp.End()                                          // 3ms
	recs := tr.Snapshot()
	if len(recs) != 1 || recs[0].Dur != time.Millisecond {
		t.Fatalf("MarkStart did not reset the clock: %+v", recs)
	}
}

func TestRingWrapAndReset(t *testing.T) {
	tr := NewTracer(4)
	tr.SetEnabled(true)
	for i := 0; i < 6; i++ {
		_, sp := tr.StartRoot(context.Background(), "s")
		sp.Arg("i", int64(i))
		sp.End()
	}
	recs := tr.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("buffered %d, want capacity 4", len(recs))
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	// Oldest-first: the two earliest records were overwritten.
	if recs[0].Args[0].Val != int64(2) || recs[3].Args[0].Val != int64(5) {
		t.Fatalf("snapshot order wrong: %v ... %v", recs[0].Args, recs[3].Args)
	}
	if tr.Capacity() != 4 {
		t.Fatalf("capacity = %d", tr.Capacity())
	}
	tr.Reset()
	if len(tr.Snapshot()) != 0 || tr.Dropped() != 0 {
		t.Fatal("Reset did not clear the buffer")
	}
}

// chromeGolden is the exact Chrome trace-event JSON for the deterministic
// span tree below (fake clock, fresh tracer so IDs start at 1).
const chromeGolden = `{
 "traceEvents": [
  {
   "name": "child",
   "cat": "ordxml",
   "ph": "X",
   "ts": 2000,
   "dur": 1000,
   "pid": 1,
   "tid": 1,
   "args": {
    "parent": 1,
    "rows": 7,
    "span": 2
   }
  },
  {
   "name": "note",
   "cat": "ordxml",
   "ph": "i",
   "ts": 4000,
   "pid": 1,
   "tid": 1,
   "s": "t",
   "args": {
    "parent": 1,
    "span": 3
   }
  },
  {
   "name": "root",
   "cat": "ordxml",
   "ph": "X",
   "ts": 1000,
   "dur": 4000,
   "pid": 1,
   "tid": 1,
   "args": {
    "parent": 0,
    "span": 1
   }
  }
 ],
 "displayTimeUnit": "ms"
}
`

func TestWriteChromeGolden(t *testing.T) {
	tr := NewTracer(16)
	fakeClock(tr)
	tr.SetEnabled(true)

	_, root := tr.StartRoot(context.Background(), "root") // 1ms
	child := root.StartChild("child")                     // 2ms
	child.Arg("rows", 7)
	child.End()        // 3ms
	root.Event("note") // 4ms
	root.End()         // 5ms

	var buf bytes.Buffer
	n, err := tr.DumpChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("DumpChrome count = %d, want 3", n)
	}
	if got := buf.String(); got != chromeGolden {
		t.Errorf("chrome JSON mismatch\n--- got ---\n%s\n--- want ---\n%s", got, chromeGolden)
	}

	// The output must be valid JSON with the documented envelope.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("traceEvents = %d entries", len(doc.TraceEvents))
	}
}

// TestConcurrentEmission runs 8 goroutines, standing in for concurrent
// readers with a trace each, that emit span trees into one tracer while the
// buffer is exported.
func TestConcurrentEmission(t *testing.T) {
	tr := NewTracer(256)
	tr.SetEnabled(true)
	const goroutines, perGoroutine = 8, 50

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perGoroutine; j++ {
				ctx, root := tr.StartRoot(context.Background(), "req")
				_, child := StartSpan(ctx, "stage")
				child.Arg("j", int64(j)).End()
				op := root.StartChild("op")
				op.Arg("reader", int64(i)).Event("tick")
				op.End()
				root.End()
			}
		}(i)
	}
	// Concurrent exports: Snapshot and WriteChrome while spans are emitted.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			tr.Snapshot()
			if err := tr.WriteChrome(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	// 4 records per iteration; buffer + dropped must account for all of them.
	total := int64(len(tr.Snapshot())) + tr.Dropped()
	if want := int64(goroutines * perGoroutine * 4); total != want {
		t.Fatalf("accounted records = %d, want %d", total, want)
	}
}
