// Package pinpair implements the pin-pair analyzer: every buffer-pool frame
// pinned — by Pool.Fetch, Pool.Alloc, or Frame.Pin — must be unpinned, via
// `defer fr.Unpin()` or an `fr.Unpin()` call on every path out of the block
// that owns the pin.
//
// A leaked pin is silent until it isn't: pinned frames are ineligible for
// eviction, so a missing Unpin slowly wedges a small pool until every frame
// is pinned and the clock sweep overshoots capacity for every new fault. The
// analyzer recognizes frames structurally (a named type `Frame` declared in
// a package named `bufpool`) and is a configuration of the framework's
// release walk (framework.Release), shared with spanfinish. What is specific
// to frames:
//
//   - `fr.Pin()` pins its receiver, so it opens an obligation on fr;
//   - method calls on the frame (Bytes, MarkDirty, ID) are ordinary use, not
//     escapes; passing, returning or capturing it is an escape;
//   - a pinned frame that is immediately discarded — dropped, or assigned
//     to _ or a field — is always flagged.
package pinpair

import "ordxml/internal/lint/framework"

// Analyzer is the pin-pair pass.
var Analyzer = &framework.Analyzer{
	Name: "pinpair",
	Doc:  "every buffer-pool pin (Fetch/Alloc/Pin) must be released on all paths (defer fr.Unpin() or Unpin before every exit)",
	Run: (&framework.Release{
		Pkg:            "bufpool",
		Type:           "Frame",
		Producers:      []string{"Fetch", "Alloc"},
		Method:         "Unpin",
		Acquire:        "Pin",
		AnyMethodIsUse: true,
		DiscardUnbound: true,
		Discarded:      "pinned frame discarded: assign it and call Unpin, or drop the call",
		Leaked:         "frame %s is pinned but not unpinned on all paths: defer %s.Unpin() or call Unpin before every exit",
	}).Run,
}
