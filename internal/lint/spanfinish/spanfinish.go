// Package spanfinish implements the span-finish analyzer: every request-
// tracer span must be finished — via `defer sp.End()` or an `sp.End()` call
// on every path out of the block that owns the span.
//
// An unfinished span is silent: an unended *ActiveSpan never reaches the
// trace buffer, so the stage or request simply vanishes from the Chrome
// export without any error. The analyzer recognizes span values
// structurally (the named type `ActiveSpan` declared in a package named
// `obs`, produced by StartSpan, StartRoot or StartChild — including the
// two-value `ctx, sp := ...` forms) and is a configuration of the
// framework's release walk (framework.Release), shared with pinpair. What
// is specific to spans:
//
//   - only End counts as use of the span; any other use, `sp.Arg(...).End()`
//     included, is an escape and leaves the span to its new owner;
//   - a span started and immediately dropped is always flagged, but one
//     assigned to _ (`ctx, _ := tr.StartRoot(...)`) is a deliberate drop.
package spanfinish

import "ordxml/internal/lint/framework"

// Analyzer is the span-finish pass.
var Analyzer = &framework.Analyzer{
	Name: "spanfinish",
	Doc:  "every obs span started must be finished on all paths (defer sp.End() or End before every exit)",
	Run: (&framework.Release{
		Pkg:       "obs",
		Type:      "ActiveSpan",
		Producers: []string{"StartSpan", "StartRoot", "StartChild"},
		Method:    "End",
		Discarded: "span started and immediately dropped: assign it and call End, or remove the Start",
		Leaked:    "span %s is not finished on all paths: defer %s.End() or call End before every exit",
	}).Run,
}
