// Package a exercises the spanfinish analyzer. This file holds the path-walk
// cases, all on child spans; activespan.go holds the constructor shapes.
package a

import (
	"errors"

	"ordxml/internal/lint/spanfinish/testdata/src/obs"
)

func deferred(parent *obs.ActiveSpan) {
	sp := parent.StartChild("deferred")
	defer sp.End()
	work()
}

func deferredClosure(parent *obs.ActiveSpan) {
	sp := parent.StartChild("closure")
	defer func() {
		sp.End()
	}()
	work()
}

func straightLine(parent *obs.ActiveSpan) {
	sp := parent.StartChild("straight")
	work()
	sp.End()
}

func earlyReturnLeak(parent *obs.ActiveSpan, fail bool) error {
	sp := parent.StartChild("leaky") // want `span sp is not finished on all paths`
	if fail {
		return errors.New("bail")
	}
	work()
	sp.End()
	return nil
}

func earlyReturnEnded(parent *obs.ActiveSpan, fail bool) error {
	sp := parent.StartChild("careful")
	if fail {
		sp.End()
		return errors.New("bail")
	}
	work()
	sp.End()
	return nil
}

func fallthroughLeak(parent *obs.ActiveSpan, ok bool) {
	sp := parent.StartChild("forgotten") // want `span sp is not finished on all paths`
	if ok {
		sp.End()
	}
	work()
}

func dropped(parent *obs.ActiveSpan) {
	parent.StartChild("dropped") // want `span started and immediately dropped`
	work()
}

func bothBranchesEnd(parent *obs.ActiveSpan, fast bool) {
	sp := parent.StartChild("branchy")
	if fast {
		sp.End()
	} else {
		work()
		sp.End()
	}
}

// escaped spans are someone else's responsibility.
func escapes(parent *obs.ActiveSpan) {
	sp := parent.StartChild("handed-off")
	finishLater(sp)
}

func finishLater(sp *obs.ActiveSpan) {
	sp.End()
}

func panicPath(parent *obs.ActiveSpan, bad bool) {
	sp := parent.StartChild("panicky")
	if bad {
		panic("no recovery, span moot")
	}
	sp.End()
}

func work() {}
