// Package obs is a miniature stand-in for the engine's observability
// package: the spanfinish analyzer recognizes span values structurally (the
// named type ActiveSpan in a package named obs), so this double triggers it
// without importing the engine.
package obs

type Tracer struct{}

// ActiveSpan mirrors the request tracer's nil-safe span handle.
type ActiveSpan struct {
	name string
}

// StartRoot mirrors the two-value (context, span) constructor shape.
func (t *Tracer) StartRoot(ctx int, name string) (int, *ActiveSpan) {
	return ctx, &ActiveSpan{name: name}
}

func (s *ActiveSpan) StartChild(name string) *ActiveSpan {
	return &ActiveSpan{name: name}
}

func (s *ActiveSpan) End() {}

// StartSpan mirrors the package-level ambient-context constructor.
func StartSpan(ctx int, name string) (int, *ActiveSpan) {
	return ctx, &ActiveSpan{}
}
