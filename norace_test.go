//go:build !race

package ordxml

import "time"

// cancelLag is how long after cancellation a query may still return.
const cancelLag = 50 * time.Millisecond

// raceEnabled reports a race-detector build, whose instrumentation changes
// what allocates.
const raceEnabled = false
