package benchmark

import (
	"sort"
	"time"
)

// The reference kernel is the benchmark's yardstick for machine speed. On a
// shared host the same engine code drifts by 20 % and more over minutes, all
// three encodings together; dividing each timed region by a kernel that runs
// interleaved with it removes most of that drift (see README, "Noise study").
// The mix matters: hashed map updates over a working set that sits in L2 plus
// a comparison sort through an interface tracked the engine; a pure ALU loop,
// random DRAM reads, binary search over 8 MB and a string-map-with-allocation
// kernel did not.
const (
	refSteps     = 300_000 // xorshift steps per run
	refKeys      = 1 << 14 // map entries touched
	refCollect   = 20      // every refCollect-th value is kept and sorted
	refNominalMs = 5.0     // calibrated time unit: the kernel takes this long

	// refGap spaces the samples inside a cycle or a set-up: one at its start,
	// one before a call once the calls since the last sample have taken this
	// long, one at its end. A sample before every call would double the run
	// time of cycles made of many short calls.
	refGap = 8 * time.Millisecond
)

type refKernel struct {
	m    map[uint64]uint64
	vals []uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{
		m:    make(map[uint64]uint64, refKeys),
		vals: make([]uint64, 0, refSteps/refCollect),
	}
	for i := uint64(0); i < refKeys; i++ {
		k.m[i] = 0
	}
	return k
}

// run does the same work on every call and allocates nothing: every key is
// already in the map, vals has its full capacity, and sort.Sort receives a
// pointer.
func (k *refKernel) run() {
	x := uint64(0x9E3779B97F4A7C15)
	k.vals = k.vals[:0]
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.m[x&(refKeys-1)]++
		if i%refCollect == 0 {
			k.vals = append(k.vals, x)
		}
	}
	sort.Sort(k)
}

func (k *refKernel) Len() int           { return len(k.vals) }
func (k *refKernel) Less(i, j int) bool { return k.vals[i] < k.vals[j] }
func (k *refKernel) Swap(i, j int)      { k.vals[i], k.vals[j] = k.vals[j], k.vals[i] }

// clock is the harness's only source of time; tests substitute both fields.
type clock struct {
	now func() time.Time
	ref func() // one run of the reference kernel
}

func newClock() *clock {
	k := newRefKernel()
	return &clock{now: time.Now, ref: k.run}
}

// timer accumulates the wall time of a sequence of operations and the
// reference-kernel samples taken between them: one before the first
// operation, one before an operation once the operations since the last
// sample have taken refGap, and one after the last operation.
type timer struct {
	clk      *clock
	wall     time.Duration
	refs     []time.Duration
	sinceRef time.Duration // wall time of the operations since the last sample
}

// due reports whether a reference sample belongs before the next operation.
func (t *timer) due() bool { return len(t.refs) == 0 || t.sinceRef >= refGap }

// sample runs the reference kernel once and keeps its duration.
func (t *timer) sample() (start, end time.Time) {
	start = t.clk.now()
	t.clk.ref()
	end = t.clk.now()
	t.refs = append(t.refs, end.Sub(start))
	t.sinceRef = 0
	return start, end
}

// stage runs fn as one timed operation, after a reference sample if one is due.
func (t *timer) stage(fn func() error) error {
	if t.due() {
		t.sample()
	}
	t0 := t.clk.now()
	err := fn()
	d := t.clk.now().Sub(t0)
	t.wall += d
	t.sinceRef += d
	return err
}

// absorb adds another timer's operations to t, as if they had run under it.
func (t *timer) absorb(o *timer) {
	t.wall += o.wall
	t.refs = append(t.refs, o.refs...)
	t.sinceRef = o.sinceRef
}

// refMs is the mean reference-kernel time in milliseconds.
func (t *timer) refMs() float64 {
	xs := make([]float64, len(t.refs))
	for i, r := range t.refs {
		xs[i] = ms(r)
	}
	return mean(xs)
}

// calibrated converts a wall time measured under t into "milliseconds on a
// machine where the reference kernel takes refNominalMs".
func (t *timer) calibrated(d time.Duration) float64 {
	return ms(d) * refNominalMs / t.refMs()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
