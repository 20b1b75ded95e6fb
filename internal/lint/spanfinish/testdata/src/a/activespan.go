package a

import (
	"errors"

	"ordxml/internal/lint/spanfinish/testdata/src/obs"
)

// These cases mirror the request-tracer API's constructor shapes: two-value
// root and ambient constructors, a span per loop iteration, and struct-field
// hand-off.

func rootDeferred(tr *obs.Tracer, ctx int) int {
	ctx, sp := tr.StartRoot(ctx, "root")
	defer sp.End()
	work()
	return ctx
}

func rootLeak(tr *obs.Tracer, ctx int, fail bool) error {
	_, sp := tr.StartRoot(ctx, "leaky-root") // want `span sp is not finished on all paths`
	if fail {
		return errors.New("bail")
	}
	sp.End()
	return nil
}

func rootDiscardedSpan(tr *obs.Tracer, ctx int) int {
	// Discarding the handle by name is deliberate; the analyzer does not
	// second-guess it.
	ctx2, _ := tr.StartRoot(ctx, "discarded")
	return ctx2
}

func ambientDeferred(ctx int) {
	ctx2, sp := obs.StartSpan(ctx, "stage")
	defer sp.End()
	_ = ctx2
	work()
}

func childPerIteration(parent *obs.ActiveSpan) {
	for i := 0; i < 4; i++ {
		sp := parent.StartChild("iteration")
		work()
		sp.End()
	}
}

// holder keeps a span for a later lifecycle phase (the operator-decorator
// pattern); storing it is an escape, so the holder owns the End.
type holder struct {
	span *obs.ActiveSpan
}

func storedInField(h *holder, parent *obs.ActiveSpan) {
	sp := parent.StartChild("stored")
	h.span = sp
}
