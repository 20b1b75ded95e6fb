package heap

import (
	"fmt"
	"sort"
)

// Validate checks the heap's page-level invariants and returns a description
// of every violation found (nil for a healthy heap):
//
//   - header sanity: the slot directory ends exactly at freeStart, and
//     freeStart <= freeEnd <= the page's payload size;
//   - slot sanity: every live payload lies inside [freeEnd, payload end);
//   - no overlap: live payloads do not overlap one another;
//   - row count: the cached rowCount equals the number of live slots.
//
// Validate is a diagnostic: it reads every page directory and is not meant
// for hot paths.
func (h *Heap) Validate() []string {
	var problems []string
	report := func(format string, args ...any) {
		if len(problems) < 64 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	live := 0
	for pi, p := range h.pages {
		b := p.bytes()
		ns := numSlots(b)
		if want := headerSize + ns*slotSize; freeStart(b) != want {
			report("page %d: freeStart %d does not match %d slots (want %d)", pi, freeStart(b), ns, want)
		}
		if freeStart(b) > freeEnd(b) || freeEnd(b) > len(b) {
			report("page %d: free window [%d, %d) invalid", pi, freeStart(b), freeEnd(b))
		}
		type span struct{ off, end, slot int }
		var spans []span
		for si := 0; si < ns; si++ {
			off, l := slot(b, si)
			if l == 0 {
				continue // dead slot
			}
			live++
			if off < freeEnd(b) || off+l > len(b) {
				report("page %d slot %d: payload [%d, %d) outside live area [%d, %d)", pi, si, off, off+l, freeEnd(b), len(b))
				continue
			}
			spans = append(spans, span{off, off + l, si})
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].off < spans[j].off })
		for i := 1; i < len(spans); i++ {
			if spans[i].off < spans[i-1].end {
				report("page %d: slots %d and %d overlap", pi, spans[i-1].slot, spans[i].slot)
			}
		}
	}
	if live != h.rowCount {
		report("row count %d but %d live slots", h.rowCount, live)
	}
	return problems
}
