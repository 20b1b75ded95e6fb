// Package obs is the engine's dependency-free observability layer: a metrics
// registry of atomic counters, gauges and fixed-bucket latency histograms,
// plus the request tracer (tracer.go) that records a span tree per request.
//
// Design constraints, in order:
//
//  1. Zero allocations on the hot path. Counter.Add, Gauge.Set and
//     Histogram.Observe are single atomic operations; a disabled Tracer
//     costs one atomic load per request and a nil check per span site.
//  2. No dependencies beyond the standard library, so storage packages
//     (heap, btree) and the SQL engine can all share one registry without
//     import cycles.
//  3. Snapshots are plain maps/structs that marshal to JSON directly, which
//     is what the debug HTTP endpoint emits.
package obs

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	olog "ordxml/internal/obs/log"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// SetMax raises the gauge to v if v is larger than the current value —
// a lock-free high-water mark (e.g. the WAL's last assigned LSN under
// concurrent appenders).
func (g *Gauge) SetMax(v int64) {
	for {
		old := g.v.Load()
		if v <= old || g.v.CompareAndSwap(old, v) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of histogram buckets. Bucket i counts durations
// in [2^(i-1), 2^i) microseconds (bucket 0 is < 1µs); the last bucket is a
// catch-all, so the covered range ends around 2^(histBuckets-2)µs ≈ 9 min.
const histBuckets = 30

// Histogram is a fixed-bucket latency histogram: exponential microsecond
// buckets plus count, sum and max. Observing is one atomic add per field
// touched and never allocates.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
}

// bucketFor maps a duration to its bucket index.
func bucketFor(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	b := bits.Len64(us) // 0 for <1µs, k for [2^(k-1), 2^k) µs
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) time.Duration {
	return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketFor(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		old := h.max.Load()
		if int64(d) <= old || h.max.CompareAndSwap(old, int64(d)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1):
// the upper edge of the bucket holding the q-th observation, clamped to the
// maximum observed value.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	est := time.Duration(h.max.Load())
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			est = bucketUpper(i)
			break
		}
	}
	if m := time.Duration(h.max.Load()); est > m {
		est = m
	}
	return est
}

// BucketCount is one cumulative histogram bucket: Count observations were
// <= Upper. The Prometheus exposition endpoint renders these as
// `_bucket{le=...}` samples.
type BucketCount struct {
	Upper time.Duration `json:"le_ns"`
	Count int64         `json:"count"`
}

// HistogramSnapshot is a point-in-time summary of a histogram.
type HistogramSnapshot struct {
	Count int64         `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	Max   time.Duration `json:"max_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	// Buckets holds cumulative counts up to the last non-empty bucket
	// (the +Inf bucket is implicit: it equals Count).
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Mean returns the average observed duration.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Snapshot summarizes the histogram, including cumulative bucket counts up
// to the last non-empty bucket.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   time.Duration(h.sum.Load()),
		Max:   time.Duration(h.max.Load()),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
	last := -1
	var raw [histBuckets]int64
	for i := 0; i < histBuckets; i++ {
		raw[i] = h.buckets[i].Load()
		if raw[i] > 0 {
			last = i
		}
	}
	if last >= 0 {
		s.Buckets = make([]BucketCount, last+1)
		var cum int64
		for i := 0; i <= last; i++ {
			cum += raw[i]
			s.Buckets[i] = BucketCount{Upper: bucketUpper(i), Count: cum}
		}
	}
	return s
}

// Registry is a named collection of metrics. Lookup (get-or-create) takes a
// mutex; the returned metric values are lock-free, so callers hold them in
// struct fields and never look up on the hot path.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() int64
	logger   atomic.Pointer[olog.Logger]
}

// SetLogger attaches a structured logger to the registry. Components that
// already receive the registry (WAL, buffer pool, SQL engine) reach the
// logger through it instead of growing their constructor signatures.
func (r *Registry) SetLogger(l *olog.Logger) {
	if r != nil {
		r.logger.Store(l)
	}
}

// Log returns the registry's logger, falling back to the process default
// (stderr text at Warn). Never nil-derefs: a nil registry returns the
// default logger.
func (r *Registry) Log() *olog.Logger {
	if r != nil {
		if l := r.logger.Load(); l != nil {
			return l
		}
	}
	return olog.Default()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		funcs:    map[string]func() int64{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterFunc registers a read-only gauge backed by fn (e.g. an external
// atomic counter). The function is evaluated at snapshot time.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Snapshot is a point-in-time copy of every metric in a registry. The maps
// are freshly allocated and safe to retain; the whole value marshals to JSON.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every metric. Func gauges are evaluated outside the
// registry lock so they may themselves read other metrics.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)+len(r.funcs)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.Snapshot()
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for n, fn := range r.funcs {
		funcs[n] = fn
	}
	r.mu.Unlock()
	for n, fn := range funcs {
		s.Gauges[n] = fn()
	}
	return s
}

// CounterNames returns the registered counter names, sorted (for stable
// text rendering).
func (s Snapshot) CounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GaugeNames returns the gauge names, sorted.
func (s Snapshot) GaugeNames() []string {
	names := make([]string, 0, len(s.Gauges))
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HistogramNames returns the histogram names, sorted.
func (s Snapshot) HistogramNames() []string {
	names := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Delta returns the work done between two snapshots: the sum over the named
// counters and gauges of each one's value in s minus its value in before.
func (s Snapshot) Delta(before Snapshot, names ...string) int64 {
	var d int64
	for _, n := range names {
		d += s.Counters[n] + s.Gauges[n] - before.Counters[n] - before.Gauges[n]
	}
	return d
}
