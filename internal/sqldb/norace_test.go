//go:build !race

package sqldb

// raceEnabled reports a race-detector build, whose instrumentation changes
// what escapes to the heap.
const raceEnabled = false
