package benchmark

import (
	"math"
	"testing"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median(odd) = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Error("median reordered its argument")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(even) = %v, want 2.5", got)
	}
	if got := percentile([]float64{10, 20, 30, 40, 50}, 90); math.Abs(got-46) > 1e-9 {
		t.Errorf("p90 = %v, want 46", got)
	}
	if got := percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is not NaN")
	}
	if got := rangeOverMedian([]float64{9, 10, 11}); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("rangeOverMedian = %v, want 0.2", got)
	}
}

// fakeClock advances only when told to: every reading of now is scripted.
type fakeClock struct {
	t     time.Time
	refMs float64 // how long the next reference sample takes
}

func (f *fakeClock) clock() *clock {
	return &clock{
		now: func() time.Time { return f.t },
		ref: func() { f.advance(f.refMs) },
	}
}

func (f *fakeClock) advance(ms float64) {
	f.t = f.t.Add(time.Duration(ms * float64(time.Millisecond)))
}

func TestCalibratedClockArithmetic(t *testing.T) {
	f := &fakeClock{t: time.Unix(0, 0), refMs: 10}
	tm := &timer{clk: f.clock()}
	// Two operations of 30 ms and 50 ms on a machine whose reference kernel
	// takes 10 ms, twice the nominal 5 ms: calibrated time is half the wall.
	for _, opMs := range []float64{30, 50} {
		if err := tm.stage(func() error { f.advance(opMs); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	tm.sample()
	if got := ms(tm.wall); got != 80 {
		t.Errorf("wall = %v ms, want 80 (reference samples excluded)", got)
	}
	if len(tm.refs) != 3 {
		t.Errorf("%d reference samples, want 3: before each operation and after the last", len(tm.refs))
	}
	if got := tm.calibrated(tm.wall); math.Abs(got-40) > 1e-9 {
		t.Errorf("calibrated = %v ms, want 40", got)
	}
	// The machine slows down by half between samples: the mean reference
	// time, 12.5 ms, is what scales.
	f.refMs = 20
	tm.sample()
	if got := tm.refMs(); math.Abs(got-12.5) > 1e-9 {
		t.Errorf("refMs = %v, want 12.5", got)
	}
	if got := tm.calibrated(tm.wall); math.Abs(got-32) > 1e-9 {
		t.Errorf("calibrated = %v ms, want 32", got)
	}
}

// Set-up stages share the cycle's sampling rule: short stages do not each
// get a sample, and a timer calibrates with its own samples only.
func TestStageSamplesReferenceByGap(t *testing.T) {
	f := &fakeClock{t: time.Unix(0, 0), refMs: 10}
	tm := &timer{clk: f.clock()}
	for i := 0; i < 6; i++ { // 3 ms each: samples before the 1st and the 4th
		if err := tm.stage(func() error { f.advance(3); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if len(tm.refs) != 2 {
		t.Errorf("%d reference samples, want 2", len(tm.refs))
	}
	if tm.sinceRef != 9*time.Millisecond {
		t.Errorf("sinceRef = %v, want 9ms", tm.sinceRef)
	}
	if got := tm.calibrated(tm.wall); math.Abs(got-9) > 1e-9 {
		t.Errorf("calibrated = %v ms, want 18 ms of wall at half speed = 9", got)
	}
}

func TestCycleSamplesReferenceByGap(t *testing.T) {
	f := &fakeClock{t: time.Unix(0, 0), refMs: 5}
	c := newCycle(f.clock(), "global", 0)
	// 3 ms calls: a sample at the start, then one whenever 8 ms of calls
	// have passed since the last (after the 3rd and 6th call), one at the end.
	for i := 0; i < 7; i++ {
		if err := c.op("q", func() error { f.advance(3); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	c.done()
	if len(c.refs) != 4 {
		t.Errorf("%d reference samples, want 4", len(c.refs))
	}
	if got := ms(c.wall); got != 21 {
		t.Errorf("cycle wall = %v ms, want 21", got)
	}
	// A periodic call is timed but kept out of the cycle's wall time.
	if err := c.periodicOp("checkpoint", 5, func() error { f.advance(100); return nil }); err != nil {
		t.Fatal(err)
	}
	if got := ms(c.wall); got != 21 {
		t.Errorf("cycle wall after a periodic call = %v ms, want 21", got)
	}
	if last := c.ops[len(c.ops)-1]; ms(last.wall) != 100 || last.every != 5 {
		t.Errorf("periodic call recorded as %+v", last)
	}
}

func TestCycleMsAmortisesPeriodicCalls(t *testing.T) {
	r := &runData{}
	for i := 0; i < 10; i++ {
		s := cycleSample{calMs: 20}
		if i%5 == 4 {
			s.ops = []opCal{{name: "checkpoint", calMs: 50, every: 5}}
		}
		r.cycles[0] = append(r.cycles[0], s)
	}
	if got := r.cycleMs(0, func(cycleSample) bool { return true }); got != 30 {
		t.Errorf("cycleMs = %v, want 20 + 50/5", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	epoch := time.Unix(0, 0)
	at := func(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	rec := newSpanRecorder(epoch)
	round := rec.open(0, "round", 3, "", at(0))
	cyc := rec.open(round, "cycle", 3, "dewey", at(1))
	rec.add(cyc, "ref", 3, "dewey", at(1), at(6))
	q1 := rec.add(cyc, "q1", 3, "dewey", at(6), at(26))
	rec.add(cyc, "ref", 3, "dewey", at(27), at(32))
	rec.end(cyc, at(33))
	rec.end(round, at(40))

	self := selfTimes(rec.spans)
	msOf := func(id int) float64 { return float64(self[id]) / 1e6 }
	if got := msOf(q1); got != 20 {
		t.Errorf("leaf self time = %v ms, want its duration 20", got)
	}
	if got := msOf(cyc); got != 2 {
		t.Errorf("cycle self time = %v ms, want 32 - (5+20+5) = 2", got)
	}
	if got := msOf(round); got != 8 {
		t.Errorf("round self time = %v ms, want 40 - 32 = 8", got)
	}
	for _, s := range rec.spans {
		if s.Round != 3 {
			t.Errorf("span %d has round %d, want 3", s.ID, s.Round)
		}
	}
}

func TestReferenceKernelDoesNotAllocate(t *testing.T) {
	k := newRefKernel()
	if allocs := testing.AllocsPerRun(5, k.run); allocs != 0 {
		t.Errorf("reference kernel allocates %v times per run, want 0", allocs)
	}
	first := append([]uint64(nil), k.vals...)
	k.run()
	for i := range first {
		if k.vals[i] != first[i] {
			t.Fatal("reference kernel does different work on a second run")
		}
	}
}

// Every workload, two rounds on a 20-items-per-region corpus, untraced and
// traced: all result checks pass and every catalogued metric is reported.
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	for _, sp := range specs {
		cfg := Config{Workload: sp.name, Seed: 7, Seconds: 1, Rounds: 2, Items: 20, Scratch: t.TempDir()}
		r, err := run(cfg, 1, false)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		res, err := report(EndToEnd(), r.endToEnd(), r.attempted)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		for name, v := range res.Metrics {
			if !(v.Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", sp.name, name, v.Value)
			}
		}
		cfg.Trace = true
		r, err = run(cfg, 1, true)
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		layer := r.genericLayer()
		for k, v := range r.groupLayer() {
			layer[k] = v
		}
		for op, metric := range sp.group.opMetrics {
			for _, enc := range encodings {
				if v, ok := layer[metric+"."+enc.name]; !ok || !(v > 0) {
					t.Errorf("%s traced: %s.%s (call %s) = %v, %v", sp.name, metric, enc.name, op, v, ok)
				}
			}
		}
		// Calls and reference samples account for the whole cycle. The median
		// over the cycles is held to that: one cycle of a few milliseconds can
		// lose more than a twentieth to a scheduling hiccup.
		self := selfTimes(r.rec.spans)
		var shares []float64
		for _, s := range r.rec.spans {
			if s.Name == "cycle" {
				shares = append(shares, float64(self[s.ID])/float64(s.EndNs-s.StartNs))
			}
		}
		if share := median(shares); !(share <= 0.05) {
			t.Errorf("%s: cycle spans spend %.1f%% outside their calls and reference samples", sp.name, 100*share)
		}
	}
	// About 2 s; not asserted, the race detector alone makes it ten times that.
	t.Logf("smoke took %v", time.Since(start))
}
