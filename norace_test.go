//go:build !race

package ordxml_test

import "time"

// cancelLag is how long after cancellation a query may still return.
const cancelLag = 50 * time.Millisecond
