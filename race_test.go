//go:build race

package ordxml_test

import "time"

// cancelLag is how long after cancellation a query may still return: the
// race detector slows the stretches between poll points several-fold.
const cancelLag = 500 * time.Millisecond
