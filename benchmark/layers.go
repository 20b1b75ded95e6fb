package benchmark

// This file turns a traced run into per-layer metrics. The generic ones hold
// for any workload; the group ones come from the calls only that kind of
// workload makes.

func tracedOnly(s cycleSample) bool   { return s.traced }
func untracedOnly(s cycleSample) bool { return !s.traced }

// perCycle is the median over encoding e's traced cycles of f.
func (r *runData) perCycle(e int, f func(cycleSample) float64) float64 {
	var xs []float64
	for _, s := range r.cycles[e] {
		if s.traced {
			xs = append(xs, f(s))
		}
	}
	return median(xs)
}

// total sums f over every traced cycle of every encoding, and counts them.
func (r *runData) total(f func(cycleSample) float64) (sum float64, cycles int) {
	for e := range r.cycles {
		for _, s := range r.cycles[e] {
			if s.traced {
				sum += f(s)
				cycles++
			}
		}
	}
	return sum, cycles
}

func count(i int) func(cycleSample) float64 {
	return func(s cycleSample) float64 { return float64(s.delta[i]) }
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// genericLayer derives the per-layer metrics every workload yields.
func (r *runData) genericLayer() map[string]float64 {
	m := map[string]float64{}
	var refs, overhead []float64
	for e, enc := range encodings {
		var cal, raw []float64
		for _, s := range r.cycles[e] {
			cal = append(cal, s.calMs)
			raw = append(raw, s.rawMs)
			refs = append(refs, s.refMs)
		}
		m["ordxml.cycle_p90_ms."+enc.name] = percentile(cal, 90)
		m["clock.raw_cycle_ms."+enc.name] = median(raw)
		m["ordxml.alloc_mb_per_cycle."+enc.name] = r.perCycle(e, func(s cycleSample) float64 { return float64(s.allocBytes) / (1 << 20) })
		m["exec.statements_per_cycle."+enc.name] = r.perCycle(e, count(cStatements))
		m["btree.node_reads_per_cycle."+enc.name] = r.perCycle(e, count(cBtreeReads))
		m["heap.page_reads_per_cycle."+enc.name] = r.perCycle(e, count(cHeapReads))
		var examined, results float64
		for _, s := range r.cycles[e] {
			if s.traced {
				examined += float64(s.delta[cIndexProbes] + s.delta[cRowsScanned])
				results += float64(s.results)
			}
		}
		if results > 0 {
			m["exec.rows_examined_per_result."+enc.name] = examined / results
		} else {
			m["exec.rows_examined_per_result."+enc.name] = 0
		}
		if un := r.cycleMs(e, untracedOnly); un > 0 {
			overhead = append(overhead, 100*(r.cycleMs(e, tracedOnly)/un-1))
		}
	}
	m["clock.ref_ms"] = mean(refs)
	m["trace.overhead_pct"] = 0
	if len(overhead) > 0 {
		m["trace.overhead_pct"] = mean(overhead)
	}
	hits, _ := r.total(count(cPlanHits))
	misses, _ := r.total(count(cPlanMisses))
	m["plan.cache_hit_pct"] = pct(hits, hits+misses)
	hits, cycles := r.total(count(cPoolHits))
	misses, _ = r.total(count(cPoolMisses))
	evictions, _ := r.total(count(cPoolEvictions))
	m["bufpool.hit_pct"] = pct(hits, hits+misses)
	m["bufpool.misses_per_cycle"] = misses / float64(max(cycles, 1))
	m["bufpool.evictions_per_cycle"] = evictions / float64(max(cycles, 1))
	return m
}

// opMs is the median over encoding e's traced cycles of the mean calibrated
// time of the cycle's calls named name; ok is false if no cycle made one.
func (r *runData) opMs(e int, name string) (v float64, ok bool) {
	var xs []float64
	for _, s := range r.cycles[e] {
		var sum float64
		n := 0
		for _, o := range s.ops {
			if o.name == name {
				sum += o.calMs
				n++
			}
		}
		if s.traced && n > 0 {
			xs = append(xs, sum/float64(n))
		}
	}
	return median(xs), len(xs) > 0
}

// groupLayer derives the per-layer metrics that come from the calls of the
// run's kind of workload: per-query, per-mutation or per-bulk-step times and
// the write path's log and checkpoint counts.
func (r *runData) groupLayer() map[string]float64 {
	m := map[string]float64{}
	for k, v := range r.extra {
		m[k] = v
	}
	for op, metric := range r.spec.group.opMetrics {
		for e, enc := range encodings {
			if v, ok := r.opMs(e, op); ok {
				m[metric+"."+enc.name] = v
			}
		}
	}
	if r.spec.group != &updateGroup {
		return m
	}
	var walBytes, walFsyncs, walFsyncMs, ckptMs, flushed []float64
	for e := range encodings {
		walBytes = append(walBytes, r.perCycle(e, count(cWALBytes)))
		walFsyncs = append(walFsyncs, r.perCycle(e, count(cWALFsyncs)))
		walFsyncMs = append(walFsyncMs, r.perCycle(e, count(cWALFsyncNs))/1e6)
		var ms, pages []float64
		for _, s := range r.cycles[e] {
			for _, o := range s.ops {
				if s.traced && o.name == "checkpoint" {
					ms = append(ms, o.calMs)
					pages = append(pages, float64(o.delta[cPoolFlushes]))
				}
			}
		}
		ckptMs = append(ckptMs, median(ms))
		flushed = append(flushed, median(pages))
	}
	m["wal.bytes_per_cycle"] = mean(walBytes)
	m["wal.fsyncs_per_cycle"] = mean(walFsyncs)
	m["wal.fsync_ms_per_cycle"] = mean(walFsyncMs)
	m["ordxml.checkpoint_ms"] = mean(ckptMs)
	m["bufpool.pages_flushed_per_checkpoint"] = mean(flushed)
	return m
}
