package benchmark

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"ordxml"
)

// env is what a workload's set-up receives.
type env struct {
	clk     *clock
	seed    int64
	items   int    // items per region of the corpus
	scratch string // existing directory for store directories
}

// workload is one of the benchmark's closed-loop workloads. A cycle is the
// unit of work on one encoding; a round is one cycle on each encoding.
type workload interface {
	// setUp generates the corpus from env.seed, builds what the cycles need
	// and checks it against the oracle, timing its stages on t.
	setUp(env *env, t *timer) error
	// cycle runs one cycle on encoding e, every Store call through c.op.
	cycle(e int, c *cycle) error
	// metrics snapshots the metrics of encoding e's store.
	metrics(e int) ordxml.Metrics
	// finish runs the end-of-run result checks and returns stored bytes per
	// node per encoding, plus any per-layer metrics only the workload knows.
	finish(clk *clock) (stored [3]float64, extra map[string]float64, err error)
	// tearDown closes stores and removes their directories.
	tearDown()
}

// Config selects one run.
type Config struct {
	Workload string
	Seed     int64
	// Seconds is the length of the timed section the run is sized for: the
	// number of rounds is the workload's count for nominalSeconds scaled by
	// Seconds/nominalSeconds, so that counts repeat exactly from run to run.
	Seconds int
	Rounds  int    // when > 0, the exact number of timed rounds instead (side passes, tests)
	Items   int    // when > 0, items per region instead of the workload's (side passes, tests)
	Trace   bool   // traced run: per-layer metrics instead of end-to-end
	Scratch string // directory for store directories and the span file, spans-<workload>.json
	// Start, when set, is when the process started: the time from then to
	// the run's first set-up counts as set-up time.
	Start time.Time
}

const (
	nominalSeconds = 20
	// setupReps is how often an untraced run of nominalSeconds sets up (a
	// longer run more often in proportion); setup_s is the median.
	setupReps = 4
	// stallFactor bounds a run on a machine far slower than the one the
	// round counts were sized on: past stallFactor*Seconds the timed loop
	// stops early, once stallMinRounds are in.
	stallFactor    = 2
	stallMinRounds = 10
)

// cycleSample is what the run keeps of one cycle.
type cycleSample struct {
	traced     bool
	calMs      float64 // calibrated time of the cycle's calls, periodic ones excluded
	rawMs      float64 // the same, wall
	refMs      float64 // mean reference-kernel sample of the cycle
	ops        []opCal
	delta      counts
	results    int
	allocBytes uint64
}

type opCal struct {
	name  string
	calMs float64
	every int
	delta counts
}

// runData is everything one run measured.
type runData struct {
	spec      *spec
	setupS    []float64 // calibrated seconds, one per set-up repetition
	liveHeap  float64   // MB
	cycles    [3][]cycleSample
	stored    [3]float64
	extra     map[string]float64
	attempted int
	rec       *spanRecorder
}

// run executes one workload run. traceAll traces every round (side passes);
// otherwise a traced run traces odd rounds and leaves even rounds untraced,
// so that one process yields both sides of trace.overhead_pct.
func run(cfg Config, reps int, traceAll bool) (*runData, error) {
	sp := specByName(cfg.Workload)
	if sp == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	runtime.GOMAXPROCS(2)
	debug.SetGCPercent(100)
	if err := os.MkdirAll(cfg.Scratch, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.Scratch, "ordbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	began := time.Now()
	clk := newClock()
	env := &env{clk: clk, seed: cfg.Seed, items: sp.items, scratch: scratch}
	if cfg.Items > 0 {
		env.items = cfg.Items
	}
	rounds := max(sp.minRounds, sp.rounds*cfg.Seconds/nominalSeconds)
	if cfg.Trace {
		// A traced run also makes side passes and probes; fewer rounds keep
		// it as long as an untraced one.
		rounds = rounds * 2 / 3
	}
	if cfg.Rounds > 0 {
		rounds = cfg.Rounds
	}
	r := &runData{spec: sp}
	if cfg.Trace {
		r.rec = newSpanRecorder(time.Now())
	}

	// setUp builds a workload and warms it up, and returns it with the
	// calibrated seconds that took; the reference samples are its own.
	setUp := func(setup *timer) (workload, float64, error) {
		w := sp.new()
		if err := w.setUp(env, setup); err != nil {
			w.tearDown()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		for i := 0; i < sp.warmup; i++ {
			for e, enc := range encodings {
				c := newCycle(clk, enc.name, -1-i)
				if err := w.cycle(e, c); err != nil {
					w.tearDown()
					return nil, 0, fmt.Errorf("warm-up: %w", err)
				}
				c.done()
				setup.absorb(&c.timer)
			}
		}
		if setup.sinceRef > 0 {
			setup.sample()
		}
		return w, setup.calibrated(setup.wall) / 1000, nil
	}

	// The first set-up carries the time since the process started, and its
	// stores are the ones measured. The repetitions come after the final
	// checks, so that what they leave behind touches no other metric.
	first := &timer{clk: clk}
	if !cfg.Start.IsZero() {
		first.wall = time.Since(cfg.Start)
	}
	w, s, err := setUp(first)
	if err != nil {
		return nil, err
	}
	defer func() {
		if w != nil {
			w.tearDown()
		}
	}()
	r.setupS = append(r.setupS, s)

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.liveHeap = float64(mem.HeapAlloc) / (1 << 20)

	// Timed rounds.
	timedStart := time.Now()
	deadline := time.Now().Add(time.Duration(stallFactor*cfg.Seconds) * time.Second)
	for round := 0; round < rounds; round++ {
		if round >= stallMinRounds && cfg.Rounds == 0 && time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "ordbench: %s stopped after %d of %d rounds: past %d×%d s\n",
				sp.name, round, rounds, stallFactor, cfg.Seconds)
			break
		}
		runtime.GC()
		traced := cfg.Trace && (traceAll || round%2 == 1)
		roundSpan := 0
		if traced {
			roundSpan = r.rec.open(0, "round", round, "", clk.now())
		}
		for e, enc := range encodings {
			c := newCycle(clk, enc.name, round)
			var alloc0 uint64
			if traced {
				runtime.ReadMemStats(&mem)
				alloc0 = mem.TotalAlloc
				c.trace(r.rec, roundSpan, func() ordxml.Metrics { return w.metrics(e) })
			}
			if err := w.cycle(e, c); err != nil {
				return nil, err
			}
			c.done()
			s := cycleSample{
				traced: traced, calMs: c.calibrated(c.wall), rawMs: ms(c.wall), refMs: c.refMs(),
				delta: c.delta, results: c.results,
			}
			for _, o := range c.ops {
				s.ops = append(s.ops, opCal{name: o.name, calMs: c.calibrated(o.wall), every: o.every, delta: o.delta})
			}
			if traced {
				runtime.ReadMemStats(&mem)
				s.allocBytes = mem.TotalAlloc - alloc0
			}
			r.cycles[e] = append(r.cycles[e], s)
			r.attempted += len(c.ops)
		}
		if traced {
			r.rec.end(roundSpan, clk.now())
		}
	}

	timedEnd := time.Now()
	stored, extra, err := w.finish(clk)
	if err != nil {
		return nil, fmt.Errorf("final check: %w", err)
	}
	r.stored, r.extra = stored, extra
	checked := time.Now()

	for rep := 1; rep < reps; rep++ {
		w.tearDown()
		w = nil
		runtime.GC()
		if w, s, err = setUp(&timer{clk: clk}); err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, s)
	}
	fmt.Fprintf(os.Stderr, "ordbench: %s seed %d: set-up %.1f s, %d rounds in %.1f s, final checks %.1f s, %d more set-ups %.1f s\n",
		sp.name, cfg.Seed, timedStart.Sub(began).Seconds(), len(r.cycles[0]),
		timedEnd.Sub(timedStart).Seconds(), checked.Sub(timedEnd).Seconds(), reps-1, time.Since(checked).Seconds())
	return r, nil
}

// endToEnd derives the run's end-to-end metrics.
func (r *runData) endToEnd() map[string]float64 {
	m := map[string]float64{
		"setup_s":      median(r.setupS),
		"live_heap_mb": r.liveHeap,
	}
	for e, enc := range encodings {
		m["cycle_ms."+enc.name] = r.cycleMs(e, func(s cycleSample) bool { return true })
		m["stored_bytes_per_node."+enc.name] = r.stored[e]
	}
	return m
}

// cycleMs is the median calibrated cycle time over encoding e's cycles that
// pass keep, plus the amortised share of every periodic call: its median
// divided by its period.
func (r *runData) cycleMs(e int, keep func(cycleSample) bool) float64 {
	var cal []float64
	periodic := map[string][]float64{}
	every := map[string]int{}
	for _, s := range r.cycles[e] {
		if !keep(s) {
			continue
		}
		cal = append(cal, s.calMs)
		for _, o := range s.ops {
			if o.every > 0 {
				periodic[o.name] = append(periodic[o.name], o.calMs)
				every[o.name] = o.every
			}
		}
	}
	total := median(cal)
	for name, xs := range periodic {
		total += median(xs) / float64(every[name])
	}
	return total
}
