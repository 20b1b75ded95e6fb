// Package govern is the query-lifecycle governance layer: the typed errors,
// cooperative-cancellation helpers, per-query memory accounting and
// store-level admission control that keep one runaway statement (or one
// overload burst) from taking the whole process with it.
//
// The package sits below the SQL engine and above nothing: it depends only on
// the standard library and the obs metrics registry, so the executor, the
// XPath translator and the public Store API can all share one vocabulary of
// failure:
//
//   - ErrCanceled / ErrDeadlineExceeded — the statement's context fired; the
//     operator tree noticed at its next poll point and unwound, releasing
//     its snapshot pin on the way out.
//   - ErrMemoryBudget — a pipeline-breaking operator (hash join build, sort
//     buffer, result materialization) asked the query's accountant for more
//     bytes than the configured budget allows.
//   - ErrOverloaded — the store's admission gate shed the request instead of
//     queueing it unboundedly: every active slot was taken and the bounded
//     wait queue was full (or the wait timed out).
//   - ErrInternal — a statement panicked; the panic was contained at the
//     statement boundary and converted to this error so one executor bug
//     fails one query, not the process.
//
// All helpers are nil-safe: a nil *Accountant charges nothing, a nil
// *Admission admits everything, a nil context never cancels. Ungoverned
// paths therefore cost two nil checks, not a configuration burden.
package govern

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"ordxml/internal/obs"
)

// Typed governance errors. Each is a sentinel for errors.Is; the concrete
// errors returned by the engine wrap both the sentinel and the underlying
// cause (e.g. context.DeadlineExceeded), so callers can match either.
var (
	// ErrCanceled reports a statement aborted because its context was
	// canceled.
	ErrCanceled = errors.New("query canceled")
	// ErrDeadlineExceeded reports a statement aborted because its context's
	// deadline passed.
	ErrDeadlineExceeded = errors.New("query deadline exceeded")
	// ErrMemoryBudget reports a statement aborted for exceeding its memory
	// budget.
	ErrMemoryBudget = errors.New("query memory budget exceeded")
	// ErrOverloaded reports a request shed by admission control.
	ErrOverloaded = errors.New("store overloaded")
	// ErrInternal reports a statement that panicked and was contained at the
	// statement boundary.
	ErrInternal = errors.New("internal error")
)

// PollInterval is how many rows an operator produces between context polls.
// Small enough that a 1 ms deadline aborts a scan mid-page, large enough
// that the atomic load disappears in the per-row cost.
const PollInterval = 256

// CtxErr maps a context's error to the typed governance sentinel, wrapping
// both so errors.Is matches ErrDeadlineExceeded/ErrCanceled as well as
// context.DeadlineExceeded/context.Canceled. It returns nil for a nil or
// live context.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	err := ctx.Err()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	default:
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
}

// Recovered converts a recovered panic value into an ErrInternal-wrapped
// error carrying the panic message and stack. Call from a deferred recover
// at a statement boundary:
//
//	defer func() {
//		if p := recover(); p != nil {
//			err = govern.Recovered(p)
//		}
//	}()
func Recovered(p any) error {
	return fmt.Errorf("%w: statement panicked: %v\n%s", ErrInternal, p, debug.Stack())
}

// MemMetrics is the shared mem.* metrics sink charged by every query
// accountant created against one store.
type MemMetrics struct {
	charged *obs.Counter // mem.charged_bytes: total bytes ever charged
	aborts  *obs.Counter // mem.budget_aborts: statements killed over budget
	peak    *obs.Gauge   // mem.query_peak_bytes: largest single-query footprint
}

// NewMemMetrics registers the mem.* metrics on reg and returns the sink.
func NewMemMetrics(reg *obs.Registry) *MemMetrics {
	return &MemMetrics{
		charged: reg.Counter("mem.charged_bytes"),
		aborts:  reg.Counter("mem.budget_aborts"),
		peak:    reg.Gauge("mem.query_peak_bytes"),
	}
}

// Accountant tracks one query's memory footprint against a budget. Charges
// come from pipeline-breaking operators (hash tables, sort buffers, result
// materialization); the accountant is shared by every statement a single
// request runs (an XPath query issues several), so the budget bounds the
// request, not each statement separately. A nil accountant accepts every
// charge. Accountants are goroutine-safe: a request context, and the
// accountant it carries, may be shared by concurrent readers on several
// goroutines.
type Accountant struct {
	budget int64 // 0 = unlimited
	used   atomic.Int64
	peak   atomic.Int64
	met    *MemMetrics
}

// NewAccountant returns an accountant enforcing budget bytes (0 for
// accounting without enforcement). met may be nil.
func NewAccountant(budget int64, met *MemMetrics) *Accountant {
	return &Accountant{budget: budget, met: met}
}

// Charge records n more bytes of footprint and fails with ErrMemoryBudget
// once the total exceeds the budget. The charge is recorded even when it
// overflows, so Release stays balanced on abort paths.
func (a *Accountant) Charge(n int64) error {
	if a == nil || n <= 0 {
		return nil
	}
	used := a.used.Add(n)
	if used > a.peak.Load() {
		a.peak.Store(used)
		if a.met != nil {
			a.met.peak.SetMax(used)
		}
	}
	if a.met != nil {
		a.met.charged.Add(n)
	}
	if a.budget > 0 && used > a.budget {
		if a.met != nil {
			a.met.aborts.Inc()
		}
		return fmt.Errorf("%w: query needs > %d bytes, budget is %d", ErrMemoryBudget, used, a.budget)
	}
	return nil
}

// Release returns n bytes to the budget (an operator freed its buffers
// mid-query, e.g. a drained hash-join build table).
func (a *Accountant) Release(n int64) {
	if a == nil || n <= 0 {
		return
	}
	a.used.Add(-n)
}

// Used returns the current charged footprint.
func (a *Accountant) Used() int64 {
	if a == nil {
		return 0
	}
	return a.used.Load()
}

// Peak returns the high-water footprint.
func (a *Accountant) Peak() int64 {
	if a == nil {
		return 0
	}
	return a.peak.Load()
}

// ctxKey carries the request's accountant through a context.
type ctxKey struct{}

// WithAccountant returns a context carrying a, so every statement the
// request runs charges one shared budget.
func WithAccountant(ctx context.Context, a *Accountant) context.Context {
	if a == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, a)
}

// AccountantFrom returns the accountant carried by ctx, or nil.
func AccountantFrom(ctx context.Context) *Accountant {
	if ctx == nil {
		return nil
	}
	a, _ := ctx.Value(ctxKey{}).(*Accountant)
	return a
}

// Admission is a store-level admission gate: at most maxActive requests run
// at once, at most maxQueue more wait (bounded, with a wait timeout), and
// everything beyond that is shed immediately with ErrOverloaded. Shedding
// under overload keeps latency for admitted requests predictable instead of
// letting an unbounded queue grow until everything is slow.
type Admission struct {
	slots    chan struct{} // one token per active slot
	maxQueue int64
	maxWait  time.Duration
	waiting  atomic.Int64

	admitted *obs.Counter   // admission.admitted
	shed     *obs.Counter   // admission.shed
	waitHist *obs.Histogram // admission.wait (time spent queued)
}

// NewAdmission returns a gate admitting maxActive concurrent requests with
// a wait queue of maxQueue and a per-request queue timeout of maxWait
// (0 means "don't wait at all" — shed as soon as no slot is free).
// maxActive < 1 is raised to 1.
func NewAdmission(maxActive, maxQueue int, maxWait time.Duration) *Admission {
	if maxActive < 1 {
		maxActive = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Admission{
		slots:    make(chan struct{}, maxActive),
		maxQueue: int64(maxQueue),
		maxWait:  maxWait,
	}
}

// RegisterMetrics publishes the admission.* metrics on reg.
func (a *Admission) RegisterMetrics(reg *obs.Registry) {
	if a == nil {
		return
	}
	a.admitted = reg.Counter("admission.admitted")
	a.shed = reg.Counter("admission.shed")
	a.waitHist = reg.Histogram("admission.wait")
	reg.RegisterFunc("admission.active", func() int64 { return int64(len(a.slots)) })
	reg.RegisterFunc("admission.waiting", a.waiting.Load)
	reg.RegisterFunc("admission.max_active", func() int64 { return int64(cap(a.slots)) })
}

// Acquire admits the request or sheds it. On success the returned release
// function MUST be called exactly once when the request finishes. A nil
// gate admits everything. Cancellation while queued returns the typed
// context error, not ErrOverloaded — the client gave up, the store did not
// shed.
func (a *Admission) Acquire(ctx context.Context) (release func(), err error) {
	if a == nil {
		return func() {}, nil
	}
	// Fast path: a slot is free right now.
	select {
	case a.slots <- struct{}{}:
		if a.admitted != nil {
			a.admitted.Inc()
		}
		return a.release, nil
	default:
	}
	// Saturated: join the bounded wait queue or shed immediately.
	if a.maxWait <= 0 {
		return a.shedErr("no slot free")
	}
	if a.waiting.Add(1) > a.maxQueue {
		a.waiting.Add(-1)
		return a.shedErr("wait queue full")
	}
	defer a.waiting.Add(-1)
	t := time.NewTimer(a.maxWait)
	defer t.Stop()
	timeout := t.C
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	start := time.Now()
	select {
	case a.slots <- struct{}{}:
		if a.waitHist != nil {
			a.waitHist.Observe(time.Since(start))
		}
		if a.admitted != nil {
			a.admitted.Inc()
		}
		return a.release, nil
	case <-timeout:
		return a.shedErr("queued past wait timeout")
	case <-done:
		return nil, CtxErr(ctx)
	}
}

// release frees one active slot.
func (a *Admission) release() { <-a.slots }

// shedErr counts and builds one shed outcome.
func (a *Admission) shedErr(why string) (func(), error) {
	if a.shed != nil {
		a.shed.Inc()
	}
	return nil, fmt.Errorf("%w: %s (%d active, %d waiting)",
		ErrOverloaded, why, len(a.slots), a.waiting.Load())
}
