package benchmark

import (
	"encoding/json"
	"os"
	"time"
)

// span is one interval the harness observed: a round, one encoding's cycle
// within it, or a reference-kernel sample or Store call within a cycle.
// Spans of one round share its Round; Parent is a span ID, 0 for a round.
// Times are nanoseconds since the recorder was created.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	Name    string           `json:"name"`
	Round   int              `json:"round"`
	Enc     string           `json:"enc,omitempty"`
	StartNs int64            `json:"start_ns"`
	EndNs   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"` // Store.Metrics() deltas across the span
}

// spanRecorder keeps spans in memory until the run ends.
type spanRecorder struct {
	epoch time.Time
	spans []span
}

func newSpanRecorder(epoch time.Time) *spanRecorder { return &spanRecorder{epoch: epoch} }

// add records a closed span and returns its ID.
func (r *spanRecorder) add(parent int, name string, round int, enc string, start, end time.Time) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Round: round, Enc: enc,
		StartNs: start.Sub(r.epoch).Nanoseconds(), EndNs: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// open reserves a span whose end is not known yet; close it with end.
func (r *spanRecorder) open(parent int, name string, round int, enc string, start time.Time) int {
	return r.add(parent, name, round, enc, start, start)
}

func (r *spanRecorder) end(id int, end time.Time) {
	r.spans[id-1].EndNs = end.Sub(r.epoch).Nanoseconds()
}

func (r *spanRecorder) setCounts(id int, counts map[string]int64) { r.spans[id-1].Counts = counts }

func (r *spanRecorder) writeJSON(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the part of it
// its child spans cover. Children of one parent never overlap here (one
// client), so the covered part is the sum of their durations.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.EndNs - s.StartNs
		if s.Parent != 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}
