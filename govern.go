package ordxml

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ordxml/internal/govern"
	olog "ordxml/internal/obs/log"
)

// This file is the store's resource-governance surface: typed failure
// sentinels, the session query timeout, the per-request memory budget, the
// admission gate that sheds load under saturation, and the degraded
// read-only mode the store enters when the durability layer hits an I/O
// error. The mechanisms live in internal/govern and the SQL engine; this
// layer decides where they apply — every public read entry point runs
// through beginRead, every mutation through logOp's read-only check.

// Typed governance errors, re-exported so callers can errors.Is against the
// public package. Each failure the governance layer produces wraps one of
// these (and, where applicable, the underlying cause: a context error, the
// injected I/O error).
var (
	// ErrCanceled reports a request aborted because its context was canceled.
	ErrCanceled = govern.ErrCanceled
	// ErrDeadlineExceeded reports a request aborted by its deadline (the
	// caller's, or the store's SetQueryTimeout default).
	ErrDeadlineExceeded = govern.ErrDeadlineExceeded
	// ErrMemoryBudget reports a request aborted for exceeding the store's
	// memory budget (SetMemoryBudget).
	ErrMemoryBudget = govern.ErrMemoryBudget
	// ErrOverloaded reports a request shed by admission control
	// (SetAdmissionLimit) because the store was saturated.
	ErrOverloaded = govern.ErrOverloaded
	// ErrInternal reports a statement that panicked; the panic was contained
	// at the statement boundary and converted to this error.
	ErrInternal = govern.ErrInternal
	// ErrReadOnly reports a mutation rejected because the store is degraded:
	// a WAL or page-file I/O error made further writes unsafe, so the store
	// serves reads only. Reopen the store to attempt recovery.
	ErrReadOnly = errors.New("store is read-only (degraded after an I/O error)")
	// ErrClosed reports a call on a durable store after Close released its
	// log and page file. Nothing is touched; reopen the directory to continue.
	ErrClosed = errors.New("store is closed")
)

// storeGovern is the store's governance state. Zero value = ungoverned: no
// timeout, no admission gate, not degraded.
type storeGovern struct {
	// queryTimeout is the session default deadline for read requests, in
	// nanoseconds (0 = none). Applied only when the caller's context carries
	// no deadline of its own.
	queryTimeout atomic.Int64
	// gate is the admission semaphore, nil when admission control is off.
	gate atomic.Pointer[govern.Admission]
	// degraded flips once, on the first durability I/O error; mu guards the
	// cause string recorded alongside it.
	degraded atomic.Bool
	mu       sync.Mutex
	cause    string
}

// SetQueryTimeout sets a session-default deadline for read requests (Query,
// QueryValues, Serialize, SQL and their Ctx variants). A caller context that
// already carries a deadline wins; d <= 0 removes the default. Aborted
// requests fail with an error matching ErrDeadlineExceeded.
func (s *Store) SetQueryTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.gov.queryTimeout.Store(int64(d))
}

// QueryTimeout returns the session-default read deadline (0 = none).
func (s *Store) QueryTimeout() time.Duration {
	return time.Duration(s.gov.queryTimeout.Load())
}

// SetMemoryBudget caps the bytes one request may materialize across all of
// its statements (hash-join builds, sort buffers, result sets). Requests
// that exceed it abort with an error matching ErrMemoryBudget; n <= 0
// removes the cap. The mem.* metrics track charged bytes, per-request peaks
// and budget aborts.
func (s *Store) SetMemoryBudget(n int64) { s.db.SetMemoryBudget(n) }

// MemoryBudget returns the per-request memory cap (0 = unlimited).
func (s *Store) MemoryBudget() int64 { return s.db.MemoryBudget() }

// SetAdmissionLimit installs admission control: at most maxActive read
// requests run concurrently, at most maxQueue more wait (each at most
// maxWait), and everything beyond that is shed immediately with an error
// matching ErrOverloaded. maxActive <= 0 removes the gate. The admission.*
// metrics expose admitted/shed counts, queue depth and wait times.
//
// Only the public read entry points are gated: mutations already serialize
// on the store's writer lock, and the store's own internal statements (WAL
// replay, integrity checks) must never be shed.
func (s *Store) SetAdmissionLimit(maxActive, maxQueue int, maxWait time.Duration) {
	if maxActive <= 0 {
		s.gov.gate.Store(nil)
		return
	}
	g := govern.NewAdmission(maxActive, maxQueue, maxWait)
	g.RegisterMetrics(s.db.Registry())
	s.gov.gate.Store(g)
}

// Degraded reports whether the store is in degraded read-only mode, and the
// cause that put it there. The state is in-memory only: reopening the store
// runs recovery and starts healthy.
func (s *Store) Degraded() (bool, string) {
	if !s.gov.degraded.Load() {
		return false, ""
	}
	s.gov.mu.Lock()
	defer s.gov.mu.Unlock()
	return true, s.gov.cause
}

// enterDegraded transitions the store to read-only after a durability I/O
// error. Only the first cause is recorded; later errors on an already-
// degraded store are someone racing the transition.
func (s *Store) enterDegraded(cause string) {
	s.gov.mu.Lock()
	if s.gov.cause == "" {
		s.gov.cause = cause
	}
	s.gov.mu.Unlock()
	if s.gov.degraded.CompareAndSwap(false, true) {
		s.db.Registry().Log().Error("store degraded to read-only",
			olog.Str("cause", cause))
	}
}

// readOnlyErr returns the mutation-rejecting error while degraded, nil
// otherwise.
func (s *Store) readOnlyErr() error {
	if !s.gov.degraded.Load() {
		return nil
	}
	s.gov.mu.Lock()
	cause := s.gov.cause
	s.gov.mu.Unlock()
	return fmt.Errorf("%w: %s", ErrReadOnly, cause)
}

// beginRead is the governance prologue every public read entry point runs:
// a context already done fails the request with its typed error, as it
// fails a mutation (see logOp); then admission control (a shed request does
// no work at all), then the session query timeout (when the caller brought
// no deadline), then the request memory accountant (when a budget is
// configured), so every statement the request issues shares one budget. The
// returned end function must be called when the request finishes; it
// releases the admission slot and the timeout's resources.
func (s *Store) beginRead(ctx context.Context) (context.Context, func(), error) {
	if err := s.closedErr(); err != nil {
		return nil, nil, err
	}
	if err := govern.CtxErr(ctx); err != nil {
		return nil, nil, err
	}
	release, err := s.gov.gate.Load().Acquire(ctx)
	if err != nil {
		return nil, nil, err
	}
	cancel := func() {}
	if d := s.gov.queryTimeout.Load(); d > 0 {
		if _, has := ctx.Deadline(); !has {
			ctx, cancel = context.WithTimeout(ctx, time.Duration(d))
		}
	}
	if govern.AccountantFrom(ctx) == nil {
		if a := s.db.RequestAccountant(); a != nil {
			ctx = govern.WithAccountant(ctx, a)
		}
	}
	return ctx, func() { cancel(); release() }, nil
}
