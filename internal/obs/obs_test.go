package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("q")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("q") != c {
		t.Fatal("Counter not idempotent")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	// 90 fast observations, 10 slow ones.
	for i := 0; i < 90; i++ {
		h.Observe(10 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(5 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P50 > 100*time.Microsecond {
		t.Fatalf("p50 = %v, want <= 100µs", s.P50)
	}
	if s.P99 < time.Millisecond {
		t.Fatalf("p99 = %v, want >= 1ms", s.P99)
	}
	if s.Max != 5*time.Millisecond {
		t.Fatalf("max = %v", s.Max)
	}
	if m := s.Mean(); m < 100*time.Microsecond || m > 2*time.Millisecond {
		t.Fatalf("mean = %v out of range", m)
	}
}

func TestHistogramEdges(t *testing.T) {
	h := &Histogram{}
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	h.Observe(-time.Second) // clamped to zero
	h.Observe(3 * time.Hour)
	s := h.Snapshot()
	if s.Count != 2 || s.Max != 3*time.Hour {
		t.Fatalf("snapshot = %+v", s)
	}
	// The catch-all bucket's estimate is clamped to the observed max.
	if s.P99 > 3*time.Hour {
		t.Fatalf("p99 = %v exceeds max", s.P99)
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Gauge("b").Set(9)
	r.Histogram("lat").Observe(time.Millisecond)
	r.RegisterFunc("ext", func() int64 { return 42 })
	s := r.Snapshot()
	if s.Counters["a"] != 3 || s.Gauges["b"] != 9 || s.Gauges["ext"] != 42 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Histograms["lat"].Count != 1 {
		t.Fatalf("histogram snapshot = %+v", s.Histograms["lat"])
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if got := s.CounterNames(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("counter names = %v", got)
	}
}

// TestConcurrentRegistry exercises the registry under -race: concurrent
// get-or-create, updates and snapshots.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

// TestMetricsZeroAlloc guards the per-statement metric updates: counter,
// gauge and histogram writes must never allocate.
func TestMetricsZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(3)
		h.Observe(17 * time.Microsecond)
	}); n != 0 {
		t.Fatalf("metric updates allocate %v per statement, want 0", n)
	}
}

func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	g.SetMax(5)
	g.SetMax(3) // never lowers
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge = %d, want 9", got)
	}
	// Concurrent high-water marking converges on the maximum.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := int64(0); v <= 1000; v++ {
				g.SetMax(v*8 + int64(w))
			}
		}(w)
	}
	wg.Wait()
	if got := g.Value(); got != 8007 {
		t.Fatalf("gauge = %d, want 8007", got)
	}
}
