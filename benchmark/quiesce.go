package benchmark

import (
	"runtime"
	"runtime/debug"
	"time"
)

// withoutGC runs fn with the garbage collector off and every finalizer
// queued so far finished. The harness wraps every call that flushes dirty
// pages (Checkpoint, Close, a load under eviction pressure) in it, because of
// an engine defect: superseded heap pages return their page ids to the pool
// from GC finalizers, and a finalizer that drops a dirty frame while
// bufpool.FlushAll walks its unlocked dirty list makes the flush fail with
// "dirty frame N has no payload" (README, finding a). fn's own timing is
// unaffected by the settling, which happens before it.
func withoutGC(fn func() error) error {
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	settle()
	return fn()
}

// settle collects garbage and waits for the finalizers that queues. Two
// passes: the finalizer goroutine takes the queue a batch at a time, so when
// the second pass's sentinel has run, every finalizer of the first pass has.
func settle() {
	for pass := 0; pass < 2; pass++ {
		done := make(chan struct{})
		sentinel := &struct{ self *int }{new(int)}
		runtime.SetFinalizer(sentinel, func(any) { close(done) })
		runtime.GC()
		select {
		case <-done:
		case <-time.After(time.Second): // the sentinel stayed reachable; do not hang on it
		}
	}
}
