//go:build race

package ordxml

import "time"

// cancelLag is how long after cancellation a query may still return: the
// race detector slows the stretches between poll points several-fold.
const cancelLag = 500 * time.Millisecond

// raceEnabled reports a race-detector build, whose instrumentation changes
// what allocates.
const raceEnabled = true
