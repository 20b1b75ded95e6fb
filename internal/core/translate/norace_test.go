//go:build !race

package translate

import "time"

// cancelLag is how long after cancellation a query may still return.
const cancelLag = 50 * time.Millisecond
