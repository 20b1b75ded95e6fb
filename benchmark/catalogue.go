package benchmark

import (
	"fmt"
	"strings"
)

// group is a kind of workload: which calls its cycles make, and so which
// call-level per-layer metrics a traced run of it yields.
type group struct {
	// opMetrics maps a call's span name to the metric it feeds; the metric
	// gets one value per encoding.
	opMetrics map[string]string
	// side is the workload that stands in for the group in the traced run of
	// a workload of another group (see Trace).
	side string
}

var (
	queryGroup = group{side: "query_mem", opMetrics: func() map[string]string {
		m := map[string]string{}
		for i := 1; i <= 9; i++ {
			m[fmt.Sprintf("q%d", i)] = fmt.Sprintf("ordxml.q%d_ms", i)
		}
		return m
	}()}
	updateGroup = group{side: "update_durable", opMetrics: map[string]string{
		"ins_begin": "update.ins_begin_ms", "ins_mid": "update.ins_mid_ms", "ins_end": "update.ins_end_ms",
		"move": "update.move_ms", "delete": "update.delete_ms", "setvalue": "update.setvalue_ms",
	}}
	loadGroup = group{side: "load_publish", opMetrics: map[string]string{
		"load": "shred.load_ms", "serialize": "publish.serialize_ms",
	}}
	groups = []*group{&queryGroup, &updateGroup, &loadGroup}
)

// spec sizes one workload.
type spec struct {
	name  string
	why   string
	group *group
	items int // items per region of the corpus
	// rounds is the number of timed rounds of a run of nominalSeconds;
	// minRounds is the fewest a run may make, whatever its length.
	rounds    int
	minRounds int
	warmup    int // untimed rounds at the end of set-up
	new       func() workload
}

var specs = []spec{
	{
		name:  "query_mem",
		why:   "Q1-Q9 on in-memory stores: all time is xpath, translate, plan/exec and in-RAM btree/heap; pool, pagefile and wal idle",
		group: &queryGroup, items: 800, rounds: 60, minRounds: 60, warmup: 2,
		new: func() workload { return &queryWorkload{} },
	},
	{
		name:  "query_paged",
		why:   "same queries on durable stores whose pool holds 33-44% of the working set: bufpool replacement and pagefile reads dominate",
		group: &queryGroup, items: 200, rounds: 45, minRounds: 30, warmup: 1,
		new: func() workload { return &queryWorkload{frames: pagedFrames} },
	},
	{
		name:  "update_durable",
		why:   "insert/move/delete/setvalue with one WAL fsync each and a checkpoint every 5th cycle, pool larger than the data: renumbering, wal, checkpoint",
		group: &updateGroup, items: 150, rounds: 70, minRounds: 60, warmup: 3,
		new: func() workload { return &updateWorkload{} },
	},
	{
		name:  "load_publish",
		why:   "open, bulk-load from XML text, serialise and byte-compare: xmltree parse, shred and publish with almost no translate/exec",
		group: &loadGroup, items: 600, rounds: 60, minRounds: 60, warmup: 3,
		new: func() workload { return &loadPublishWorkload{} },
	},
}

// pagedFrames is query_paged's buffer pool: 33 to 44 % of the 584 to 774
// pages its document and indexes occupy, depending on the encoding.
const pagedFrames = 256

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// Metric describes one metric of the benchmark.
type Metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
	// Bound, end-to-end only, is the share of the parent's median the metric
	// may worsen by.
	Bound float64 `json:"bound,omitempty"`
}

// perEnc expands a metric into one per encoding.
func perEnc(name, unit, better string, bound float64) []Metric {
	var ms []Metric
	for _, enc := range encodings {
		ms = append(ms, Metric{name + "." + enc.name, unit, better, bound})
	}
	return ms
}

// EndToEnd lists the metrics an untraced run reports.
func EndToEnd() []Metric {
	ms := []Metric{{"setup_s", "s", "lower", 0.10}}
	ms = append(ms, perEnc("cycle_ms", "ms", "lower", 0.10)...)
	ms = append(ms, perEnc("stored_bytes_per_node", "B/node", "lower", 0.005)...)
	return append(ms, Metric{"live_heap_mb", "MB", "lower", 0.05})
}

// PerLayer lists the metrics a traced run reports: first those measured on
// the workload's own cycles, then the probes.
func PerLayer() []Metric {
	var ms []Metric
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			if base, ok := strings.CutSuffix(n, ".{enc}"); ok {
				ms = append(ms, perEnc(base, unit, better, 0)...)
			} else {
				ms = append(ms, Metric{n, unit, better, 0})
			}
		}
	}
	for i := 1; i <= 9; i++ {
		add("ms", "lower", fmt.Sprintf("ordxml.q%d_ms.{enc}", i))
	}
	add("count", "lower", "exec.statements_per_cycle.{enc}", "exec.rows_examined_per_result.{enc}",
		"btree.node_reads_per_cycle.{enc}", "heap.page_reads_per_cycle.{enc}")
	add("%", "higher", "plan.cache_hit_pct", "bufpool.hit_pct")
	add("count", "lower", "bufpool.misses_per_cycle", "bufpool.evictions_per_cycle")
	add("ms", "lower", "update.ins_begin_ms.{enc}", "update.ins_mid_ms.{enc}", "update.ins_end_ms.{enc}",
		"update.move_ms.{enc}", "update.delete_ms.{enc}", "update.setvalue_ms.{enc}")
	add("count", "lower", "update.rows_renumbered_per_cycle.{enc}")
	add("B", "lower", "wal.bytes_per_cycle")
	add("count", "lower", "wal.fsyncs_per_cycle")
	add("ms", "lower", "wal.fsync_ms_per_cycle", "ordxml.checkpoint_ms")
	add("count", "lower", "bufpool.pages_flushed_per_checkpoint")
	add("ms", "lower", "ordxml.reopen_ms", "shred.load_ms.{enc}", "publish.serialize_ms.{enc}")
	add("MB", "lower", "ordxml.alloc_mb_per_cycle.{enc}")
	add("ms", "lower", "ordxml.cycle_p90_ms.{enc}", "clock.raw_cycle_ms.{enc}", "clock.ref_ms")
	add("%", "lower", "trace.overhead_pct")
	for _, p := range probes {
		add(p.unit, p.better, p.name)
	}
	return ms
}
