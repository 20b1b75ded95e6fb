package benchmark

import (
	"fmt"
	"time"

	"ordxml"
)

// counts is the set of engine metrics the harness reads, by name, from
// Store.Metrics() at every span boundary of a traced cycle.
type counts [nCounts]int64

const (
	cStatements    = iota // sqldb.queries
	cPlanHits             // sqldb.plancache.hits
	cPlanMisses           // sqldb.plancache.misses
	cIndexProbes          // storage.index_probes
	cRowsScanned          // storage.rows_scanned
	cBtreeReads           // storage.btree.node_reads
	cHeapReads            // storage.heap.page_reads
	cPoolHits             // bufpool.hits
	cPoolMisses           // bufpool.misses
	cPoolEvictions        // bufpool.evictions
	cPoolFlushes          // bufpool.dirty_flushes
	cWALBytes             // wal.append.bytes
	cWALFsyncs            // wal.fsyncs
	cWALFsyncNs           // wal.fsync.latency, summed
	nCounts
)

var countNames = [nCounts]string{
	"sqldb.queries", "sqldb.plancache.hits", "sqldb.plancache.misses",
	"storage.index_probes", "storage.rows_scanned",
	"storage.btree.node_reads", "storage.heap.page_reads",
	"bufpool.hits", "bufpool.misses", "bufpool.evictions", "bufpool.dirty_flushes",
	"wal.append.bytes", "wal.fsyncs", "wal.fsync.latency",
}

// readCounts picks the harness's metrics out of a snapshot. A name the store
// does not publish (bufpool.* on a memory store, wal.* without a log) reads 0.
func readCounts(m ordxml.Metrics) counts {
	var c counts
	for i, name := range countNames {
		if v, ok := m.Counters[name]; ok {
			c[i] = v
		} else if v, ok := m.Gauges[name]; ok {
			c[i] = v
		} else if h, ok := m.Histograms[name]; ok {
			c[i] = int64(h.Sum)
		}
	}
	return c
}

func (c counts) sub(o counts) counts {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c *counts) add(o counts) {
	for i := range c {
		c[i] += o[i]
	}
}

func (c counts) asMap() map[string]int64 {
	m := make(map[string]int64)
	for i, v := range c {
		if v != 0 {
			m[countNames[i]] = v
		}
	}
	return m
}

// opSample is one timed Store call.
type opSample struct {
	name string
	wall time.Duration
	// every > 0 marks an operation that runs on every every-th cycle only
	// (a checkpoint). It is timed apart from the cycle, and the workload's
	// cycle_ms carries its median divided by every.
	every int
	delta counts // Store.Metrics() delta across the call, traced cycles only
}

// cycle times one workload cycle on one encoding: the Store calls' wall times,
// reference-kernel samples between them (see refGap), and — on a traced cycle
// — a span and a Store.Metrics() delta per call.
type cycle struct {
	timer
	enc   string
	round int
	ops   []opSample

	rec     *spanRecorder // nil on an untraced cycle
	spanID  int
	metrics func() ordxml.Metrics
	last    counts
	delta   counts // summed over the cycle's calls
	results int    // nodes the cycle's queries returned
}

func newCycle(clk *clock, enc string, round int) *cycle {
	return &cycle{timer: timer{clk: clk}, enc: enc, round: round}
}

// trace makes the cycle record spans under parent and read metrics deltas.
func (c *cycle) trace(rec *spanRecorder, parent int, metrics func() ordxml.Metrics) {
	c.rec = rec
	c.metrics = metrics
	c.spanID = rec.open(parent, "cycle", c.round, c.enc, c.clk.now())
	c.last = readCounts(metrics())
}

// op runs fn as one timed call of the cycle.
func (c *cycle) op(name string, fn func() error) error { return c.run(name, 0, fn) }

// periodicOp runs fn as a call that happens on every every-th cycle only.
func (c *cycle) periodicOp(name string, every int, fn func() error) error {
	return c.run(name, every, fn)
}

func (c *cycle) run(name string, every int, fn func() error) error {
	if c.due() {
		c.sampleRef()
	}
	t0 := c.clk.now()
	err := fn()
	t1 := c.clk.now()
	if every == 0 {
		c.wall += t1.Sub(t0)
	}
	c.sinceRef += t1.Sub(t0)
	o := opSample{name: name, wall: t1.Sub(t0), every: every}
	if c.rec != nil {
		id := c.rec.add(c.spanID, name, c.round, c.enc, t0, t1)
		now := readCounts(c.metrics())
		o.delta = now.sub(c.last)
		c.last = now
		c.delta.add(o.delta)
		c.rec.setCounts(id, o.delta.asMap())
	}
	c.ops = append(c.ops, o)
	if err != nil {
		return fmt.Errorf("%s on %s, round %d: %w", name, c.enc, c.round, err)
	}
	return nil
}

// sampleRef takes a reference sample and, on a traced cycle, records its span.
func (c *cycle) sampleRef() {
	r0, r1 := c.sample()
	if c.rec != nil {
		c.rec.add(c.spanID, "ref", c.round, c.enc, r0, r1)
	}
}

// done takes the closing reference sample and ends the cycle's span.
func (c *cycle) done() {
	c.sampleRef()
	if c.rec != nil {
		c.rec.end(c.spanID, c.clk.now())
		c.rec.setCounts(c.spanID, c.delta.asMap())
	}
}
