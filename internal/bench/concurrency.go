package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ordxml"
	"ordxml/internal/obs"
)

// Concurrency benchmark: closed-loop readers over the E3 query mix. Each of
// N goroutines runs the full query suite back-to-back (no think time) for a
// fixed wall-clock window against one shared store, while per-query latency
// goes into an obs.Histogram. Because readers pin a snapshot and hold no
// store lock, aggregate throughput should scale with goroutines; the
// single-goroutine run of the same loop is the baseline the speedup column
// is computed against.

// ConcurrencyResult is one (encoding, goroutines) cell of the concurrency
// benchmark, serialized into BENCH_concurrency.json.
type ConcurrencyResult struct {
	Encoding   string  `json:"encoding"`
	Goroutines int     `json:"goroutines"`
	Seconds    float64 `json:"seconds"`
	Queries    int64   `json:"queries"`
	QPS        float64 `json:"qps"`
	MeanUS     float64 `json:"mean_us"`
	P50US      float64 `json:"p50_us"`
	P95US      float64 `json:"p95_us"`
	P99US      float64 `json:"p99_us"`
	Speedup    float64 `json:"speedup_vs_1"`
}

// ConcurrencyReport is the top-level shape of BENCH_concurrency.json.
type ConcurrencyReport struct {
	SchemaVersion  int                 `json:"schema_version"`
	ItemsPerRegion int                 `json:"items_per_region"`
	QueryMix       string              `json:"query_mix"`
	Results        []ConcurrencyResult `json:"results"`
}

// RunConcurrency measures aggregate E3-mix read throughput at each
// goroutine count, per encoding. perLevel is the measurement window for one
// (encoding, goroutines) cell.
func RunConcurrency(itemsPerRegion int, goroutines []int, perLevel time.Duration) (ConcurrencyReport, error) {
	rep := ConcurrencyReport{
		SchemaVersion:  1,
		ItemsPerRegion: itemsPerRegion,
		QueryMix:       "E3 Q1-Q9",
	}
	doc := CatalogDoc(itemsPerRegion)
	suite := QuerySuite(itemsPerRegion)
	for _, cfg := range Encodings() {
		s, id, err := NewStore(cfg, doc)
		if err != nil {
			return rep, fmt.Errorf("%s: %w", cfg.Name, err)
		}
		// Warm the plan cache once, serially.
		for _, q := range suite {
			if _, err := s.QueryValues(id, q.XPath); err != nil {
				return rep, fmt.Errorf("%s %s: %w", cfg.Name, q.ID, err)
			}
		}
		baseline := 0.0
		for _, n := range goroutines {
			r, err := runConcurrencyLevel(s, id, suite, n, perLevel)
			if err != nil {
				return rep, fmt.Errorf("%s n=%d: %w", cfg.Name, n, err)
			}
			r.Encoding = cfg.Name
			if n == 1 {
				baseline = r.QPS
			}
			if baseline > 0 {
				r.Speedup = r.QPS / baseline
			}
			rep.Results = append(rep.Results, r)
		}
	}
	return rep, nil
}

// runConcurrencyLevel runs one closed-loop measurement: n goroutines cycle
// through the query suite until the window elapses.
func runConcurrencyLevel(s *ordxml.Store, id ordxml.DocID, suite []QuerySpec, n int, window time.Duration) (ConcurrencyResult, error) {
	var (
		hist    obs.Histogram
		queries atomic.Int64
		stop    atomic.Bool
		wg      sync.WaitGroup
		errOnce sync.Once
		runErr  error
	)
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func(w int) {
			defer wg.Done()
			// Stagger starting offsets so goroutines don't run the suite in
			// lockstep.
			for i := w; !stop.Load(); i++ {
				q := suite[i%len(suite)]
				t0 := time.Now()
				_, err := s.QueryValues(id, q.XPath)
				hist.Observe(time.Since(t0))
				if err != nil {
					errOnce.Do(func() { runErr = fmt.Errorf("%s: %w", q.ID, err) })
					return
				}
				queries.Add(1)
			}
		}(w)
	}
	start := time.Now()
	time.Sleep(window)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	if runErr != nil {
		return ConcurrencyResult{}, runErr
	}
	snap := hist.Snapshot()
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return ConcurrencyResult{
		Goroutines: n,
		Seconds:    elapsed.Seconds(),
		Queries:    queries.Load(),
		QPS:        float64(queries.Load()) / elapsed.Seconds(),
		MeanUS:     us(snap.Mean()),
		P50US:      us(snap.P50),
		P95US:      us(snap.P95),
		P99US:      us(snap.P99),
	}, nil
}

// ConcurrencyTable renders a report as an aligned text table.
func ConcurrencyTable(rep ConcurrencyReport) Table {
	t := Table{
		Title:  fmt.Sprintf("Concurrency: closed-loop %s, %d items/region", rep.QueryMix, rep.ItemsPerRegion),
		Note:   "aggregate read throughput; speedup is vs. the 1-goroutine run of the same encoding",
		Header: []string{"encoding", "goroutines", "qps", "speedup", "mean_us", "p50_us", "p95_us", "p99_us"},
	}
	for _, r := range rep.Results {
		t.Rows = append(t.Rows, []string{
			r.Encoding,
			fmt.Sprintf("%d", r.Goroutines),
			fmt.Sprintf("%.0f", r.QPS),
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%.1f", r.MeanUS),
			fmt.Sprintf("%.1f", r.P50US),
			fmt.Sprintf("%.1f", r.P95US),
			fmt.Sprintf("%.1f", r.P99US),
		})
	}
	return t
}
