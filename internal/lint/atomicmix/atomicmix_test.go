package atomicmix_test

import (
	"testing"

	"ordxml/internal/lint/atomicmix"
	"ordxml/internal/lint/framework"
)

// TestAtomicMix runs the analyzer over a package mixing raw sync/atomic
// calls with plain accesses: the plain reads and writes of marked locations
// are flagged; atomic argument positions, composite-literal keys, typed
// atomics and unmarked fields are not.
func TestAtomicMix(t *testing.T) {
	framework.RunTest(t, atomicmix.Analyzer, "testdata/src/a")
}
