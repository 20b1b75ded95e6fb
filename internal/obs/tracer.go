package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the request-scoped tracing layer, the engine's only tracer.
// The Tracer records a *tree* of spans with trace/span/parent IDs into a
// bounded in-memory ring buffer, safe for concurrent emission from concurrent
// readers and writers, and exports the buffer as Chrome trace-event JSON
// loadable in Perfetto (chrome://tracing).
//
// The active-span handle is a *ActiveSpan; nil is the disabled state and
// every method is nil-safe, so call sites thread spans unconditionally:
//
//	ctx, sp := tracer.StartRoot(ctx, "xpath.query")
//	defer sp.End()
//	...
//	ctx2, child := obs.StartSpan(ctx, "plan")
//	child.End()
//
// When the tracer is disabled StartRoot returns (ctx, nil) untouched and the
// whole request pays one atomic load.

// DefaultTracerCapacity is the default bounded span-buffer size. At ~100
// bytes a record this is under 1 MiB resident.
const DefaultTracerCapacity = 8192

// Arg is one key/value annotation on a span. Val is an int64 or a string.
type Arg struct {
	Key string `json:"key"`
	Val any    `json:"val"`
}

// SpanRecord is one completed span (or instant event) in the trace buffer.
type SpanRecord struct {
	Trace   uint64        `json:"trace"`
	ID      uint64        `json:"id"`
	Parent  uint64        `json:"parent"` // 0 for roots
	Name    string        `json:"name"`
	Start   time.Time     `json:"start"`
	Dur     time.Duration `json:"dur_ns"`
	Instant bool          `json:"instant,omitempty"`
	Args    []Arg         `json:"args,omitempty"`
}

// Tracer owns the bounded span buffer. All methods are safe for concurrent
// use. The zero value is unusable; call NewTracer.
type Tracer struct {
	enabled   atomic.Bool
	nextTrace atomic.Uint64
	nextSpan  atomic.Uint64
	dropped   atomic.Int64

	now func() time.Time // test hook; time.Now outside tests

	mu   sync.Mutex
	buf  []SpanRecord // ring: next is the slot to overwrite once full
	next int
	full bool
}

// NewTracer returns a disabled tracer with a bounded buffer of capacity
// span records (DefaultTracerCapacity if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCapacity
	}
	return &Tracer{
		now: time.Now,
		buf: make([]SpanRecord, 0, capacity),
	}
}

// SetEnabled turns span recording on or off. Disabling does not clear the
// buffer; use Reset.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Enabled reports whether new root spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Capacity returns the span-buffer capacity.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return cap(t.buf)
}

// Dropped returns how many records were overwritten because the ring
// wrapped.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Reset discards all buffered records and the dropped count.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.buf = t.buf[:0]
	t.next = 0
	t.full = false
	t.mu.Unlock()
	t.dropped.Store(0)
}

// record appends one completed record to the ring, overwriting the oldest
// once full.
func (t *Tracer) record(r SpanRecord) {
	t.mu.Lock()
	if !t.full && len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, r)
		if len(t.buf) == cap(t.buf) {
			t.full = true
		}
	} else {
		t.buf[t.next] = r
		t.next++
		if t.next == len(t.buf) {
			t.next = 0
		}
		t.dropped.Add(1)
	}
	t.mu.Unlock()
}

// Snapshot returns the buffered records, oldest first. The slice is a copy.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, len(t.buf))
	if t.full {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// ActiveSpan is a started, not-yet-ended span. A nil *ActiveSpan is the
// disabled state; every method is a nil check and nothing more.
type ActiveSpan struct {
	t     *Tracer
	name  string
	trace uint64
	id    uint64
	par   uint64
	start time.Time

	mu    sync.Mutex
	args  []Arg
	ended bool
}

// StartRoot begins a new trace rooted at name and returns ctx with the root
// span attached. When the tracer is nil or disabled it returns (ctx, nil).
func (t *Tracer) StartRoot(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	if t == nil || !t.enabled.Load() {
		return ctx, nil
	}
	sp := &ActiveSpan{
		t:     t,
		name:  name,
		trace: t.nextTrace.Add(1),
		id:    t.nextSpan.Add(1),
		start: t.now(),
	}
	return ContextWith(ctx, sp), sp
}

// StartChild begins a child span. Nil-safe.
func (s *ActiveSpan) StartChild(name string) *ActiveSpan {
	if s == nil {
		return nil
	}
	return &ActiveSpan{
		t:     s.t,
		name:  name,
		trace: s.trace,
		id:    s.t.nextSpan.Add(1),
		par:   s.id,
		start: s.t.now(),
	}
}

// MarkStart resets the span's start time to now. Operator spans are
// allocated at plan-build time but should measure Open→Close; the trace
// decorator calls this once at Open. Nil-safe.
func (s *ActiveSpan) MarkStart() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.start = s.t.now()
	s.mu.Unlock()
}

// Arg attaches an integer annotation. Nil-safe; returns s for chaining.
func (s *ActiveSpan) Arg(key string, v int64) *ActiveSpan {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.args = append(s.args, Arg{Key: key, Val: v})
	s.mu.Unlock()
	return s
}

// ArgStr attaches a string annotation. Nil-safe; returns s for chaining.
func (s *ActiveSpan) ArgStr(key, v string) *ActiveSpan {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.args = append(s.args, Arg{Key: key, Val: v})
	s.mu.Unlock()
	return s
}

// Event records an instant (zero-duration) child event, e.g. a per-statement
// buffer-pool delta. Nil-safe.
func (s *ActiveSpan) Event(name string, args ...Arg) {
	if s == nil {
		return
	}
	s.t.record(SpanRecord{
		Trace:   s.trace,
		ID:      s.t.nextSpan.Add(1),
		Parent:  s.id,
		Name:    name,
		Start:   s.t.now(),
		Instant: true,
		Args:    args,
	})
}

// End completes the span and commits it to the trace buffer. Ending twice
// is a no-op. Nil-safe.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	args := s.args
	start := s.start
	s.mu.Unlock()
	s.t.record(SpanRecord{
		Trace:  s.trace,
		ID:     s.id,
		Parent: s.par,
		Name:   s.name,
		Start:  start,
		Dur:    s.t.now().Sub(start),
		Args:   args,
	})
}

// TraceID returns the span's trace ID (0 for nil).
func (s *ActiveSpan) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.trace
}

// SpanID returns the span's ID (0 for nil).
func (s *ActiveSpan) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// ctxKey is the context key for the ambient span.
type ctxKey struct{}

// ContextWith returns ctx carrying sp. A nil span returns ctx unchanged.
func ContextWith(ctx context.Context, sp *ActiveSpan) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the ambient span, or nil if none.
func FromContext(ctx context.Context) *ActiveSpan {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*ActiveSpan)
	return sp
}

// StartSpan begins a child of the ambient span in ctx and returns ctx with
// the child attached. With no ambient span it returns (ctx, nil).
func StartSpan(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.StartChild(name)
	return ContextWith(ctx, sp), sp
}

// chromeEvent is one Chrome trace-event JSON object. ts and dur are in
// microseconds; pid groups a trace and tid is the trace's one track (a
// statement runs on one goroutine, so its spans nest rather than overlap).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   uint64         `json:"pid"`
	Tid   uint64         `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChrome writes the buffered spans as Chrome trace-event JSON
// ({"traceEvents":[...]}), loadable in Perfetto and chrome://tracing.
// Span nesting is positional (complete "X" events on a pid/tid track);
// the span tree is also explicit via args.span/args.parent.
func (t *Tracer) WriteChrome(w io.Writer) error {
	recs := t.Snapshot()
	events := make([]chromeEvent, 0, len(recs))
	for _, r := range recs {
		ev := chromeEvent{
			Name: r.Name,
			Cat:  "ordxml",
			Ph:   "X",
			Ts:   float64(r.Start.UnixNano()) / 1e3,
			Dur:  float64(r.Dur) / 1e3,
			Pid:  r.Trace,
			Tid:  r.Trace,
			Args: map[string]any{"span": r.ID, "parent": r.Parent},
		}
		if r.Instant {
			ev.Ph = "i"
			ev.Dur = 0
			ev.Scope = "t"
		}
		for _, a := range r.Args {
			ev.Args[a.Key] = a.Val
		}
		events = append(events, ev)
	}
	out := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// DumpChrome writes the Chrome trace to a file-like destination and reports
// the record count, for `\trace dump <file>`.
func (t *Tracer) DumpChrome(w io.Writer) (int, error) {
	n := len(t.Snapshot())
	if err := t.WriteChrome(w); err != nil {
		return 0, fmt.Errorf("write chrome trace: %w", err)
	}
	return n, nil
}
