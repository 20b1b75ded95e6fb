package exec

import (
	"hash/fnv"
	"sync"
	"sync/atomic"

	"ordxml/internal/govern"
	"ordxml/internal/obs"
	"ordxml/internal/sqldb/catalog"
	"ordxml/internal/sqldb/expr"
	"ordxml/internal/sqldb/heap"
	"ordxml/internal/sqldb/plan"
	"ordxml/internal/sqldb/sqltypes"
)

// Parallel execution: the Gather exchange operator and the partitioned hash
// join. A Gather builds one operator subtree per worker from the same plan
// nodes; the scan at the bottom of each subtree pulls disjoint slices of the
// table through shared cursor state, so the workers collectively cover the
// input exactly once.

// pageChunk is how many heap pages a parallel seq-scan worker claims per
// cursor round-trip: big enough to amortize the atomic, small enough to
// balance skewed page fills.
const pageChunk = 8

// ridBatchSize is how many RIDs a parallel index-scan worker pulls per
// acquisition of the shared cursor lock.
const ridBatchSize = 64

// pageCursor hands out disjoint heap page ranges to parallel scan workers.
type pageCursor struct {
	next  atomic.Int64
	pages int
}

func (c *pageCursor) claim() (lo, hi int, ok bool) {
	lo = int(c.next.Add(pageChunk)) - pageChunk
	if lo >= c.pages {
		return 0, 0, false
	}
	hi = lo + pageChunk
	if hi > c.pages {
		hi = c.pages
	}
	return lo, hi, true
}

// ridCursor serializes one shared index iterator; workers drain it in
// batches so the lock is held for handout only, not for heap fetches.
type ridCursor struct {
	mu sync.Mutex
	it *catalog.IndexIter // nil when the scan bounds matched nothing
}

func (c *ridCursor) nextBatch(buf []heap.RID) []heap.RID {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.it == nil {
		return buf
	}
	for len(buf) < cap(buf) {
		rid, ok := c.it.Next()
		if !ok {
			c.it = nil
			break
		}
		buf = append(buf, rid)
	}
	return buf
}

// gatherShared is the per-Gather-execution partition state, keyed by plan
// node so every worker's instance of the same scan shares one cursor.
type gatherShared struct {
	mu      sync.Mutex
	cursors map[plan.Node]any
}

func newGatherShared() *gatherShared {
	return &gatherShared{cursors: map[plan.Node]any{}}
}

func (g *gatherShared) pageCursor(n plan.Node, pages int) *pageCursor {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.cursors[n].(*pageCursor); ok {
		return c
	}
	c := &pageCursor{pages: pages}
	g.cursors[n] = c
	return c
}

// ridCursor returns the shared cursor for an index scan node, opening the
// underlying iterator (with the first worker's evaluated bounds) exactly
// once. All workers evaluate identical bounds, so whoever arrives first wins.
func (g *gatherShared) ridCursor(n plan.Node, open func() (*catalog.IndexIter, error)) (*ridCursor, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.cursors[n].(*ridCursor); ok {
		return c, nil
	}
	it, err := open()
	if err != nil {
		return nil, err
	}
	c := &ridCursor{it: it}
	g.cursors[n] = c
	return c, nil
}

// gatherOp is the exchange operator: it builds Workers instances of its
// input subtree, runs them concurrently, and streams their merged output.
type gatherOp struct {
	node   *plan.Gather
	params []sqltypes.Value
	env    Env

	rows        chan sqltypes.Row
	stop        chan struct{}
	stopOnce    sync.Once
	wg          sync.WaitGroup
	workerErrs  []error
	workerStats []map[plan.Node]*OpStats
	merged      bool
}

func (g *gatherOp) Open() error {
	workers := g.node.Workers
	if workers < 1 {
		workers = 1
	}
	shared := newGatherShared()
	ops := make([]Operator, workers)
	spans := make([]*obs.ActiveSpan, workers)
	g.workerErrs = make([]error, workers)
	g.workerStats = nil
	g.merged = false
	for i := 0; i < workers; i++ {
		wenv := g.env
		wenv.shared = shared
		wenv.worker = i
		// Each worker's subtree hangs under its own "gather.worker" span on
		// a fresh lane, so overlapping workers render as parallel tracks.
		wenv.Span = g.env.Span.StartWorker("gather.worker", i)
		spans[i] = wenv.Span
		if g.env.Stats != nil {
			ws := make(map[plan.Node]*OpStats)
			wenv.Stats = ws
			g.workerStats = append(g.workerStats, ws)
		}
		op, err := build(g.node.Input, g.params, wenv)
		if err != nil {
			for _, sp := range spans {
				sp.End()
			}
			return err
		}
		ops[i] = op
	}
	g.rows = make(chan sqltypes.Row, workers*4)
	g.stop = make(chan struct{})
	g.stopOnce = sync.Once{}
	for i, op := range ops {
		g.wg.Add(1)
		go func(i int, op Operator, wsp *obs.ActiveSpan) {
			defer g.wg.Done()
			defer wsp.End()
			// Contain worker panics: an executor bug (or a poisoned page read)
			// in one worker must fail this query, not the process. Registered
			// before op.Close so a panic during Close is caught too.
			defer func() {
				if p := recover(); p != nil {
					g.workerErrs[i] = govern.Recovered(p)
				}
			}()
			defer op.Close()
			if err := op.Open(); err != nil {
				g.workerErrs[i] = err
				return
			}
			for {
				row, ok, err := op.Next()
				if err != nil {
					g.workerErrs[i] = err
					return
				}
				if !ok {
					return
				}
				select {
				case g.rows <- row.Clone():
				case <-g.stop:
					return
				}
			}
		}(i, op, spans[i])
	}
	go func() {
		g.wg.Wait()
		close(g.rows)
	}()
	return nil
}

func (g *gatherOp) Next() (sqltypes.Row, bool, error) {
	row, ok := <-g.rows
	if ok {
		return row, true, nil
	}
	// All workers drained: surface the first error, fold worker stats into
	// the parent's map.
	g.finish()
	for _, err := range g.workerErrs {
		if err != nil {
			return nil, false, err
		}
	}
	return nil, false, nil
}

func (g *gatherOp) Close() {
	if g.stop == nil {
		return // Open never started the workers (build error upstream)
	}
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
	g.finish()
}

// finish merges per-worker instrumentation into the parent stats map: rows
// and loops sum across workers, time reports the slowest worker (the
// operator's wall-clock contribution), and the per-worker breakdown is kept
// for EXPLAIN ANALYZE.
func (g *gatherOp) finish() {
	if g.merged || g.env.Stats == nil {
		return
	}
	g.merged = true
	for _, ws := range g.workerStats {
		for n, st := range ws {
			dst := g.env.Stats[n]
			if dst == nil {
				dst = &OpStats{}
				g.env.Stats[n] = dst
			}
			dst.Rows += st.Rows
			dst.Loops += st.Loops
			if st.Time > dst.Time {
				dst.Time = st.Time
			}
			dst.Workers = append(dst.Workers, st)
		}
	}
}

// partHashJoinOp executes a PartitionedHashJoin: both inputs are drained
// serially and hash-partitioned on the join keys, then one worker per
// partition builds and probes its bucket pair. Rows with NULL keys are
// dropped on both sides (inner-join equality semantics).
type partHashJoinOp struct {
	node       *plan.PartitionedHashJoin
	left       Operator
	right      Operator
	params     []sqltypes.Value
	env        Env
	rightWidth int

	out []sqltypes.Row
	pos int
}

type partRow struct {
	key string
	row sqltypes.Row
}

func (j *partHashJoinOp) Open() error {
	j.out = nil
	j.pos = 0
	workers := j.node.Workers
	if workers < 1 {
		workers = 1
	}
	env := &expr.Env{Params: j.params}
	rightParts, err := j.partition(j.right, j.node.RightKeys, env, workers)
	if err != nil {
		return err
	}
	leftParts, err := j.partition(j.left, j.node.LeftKeys, env, workers)
	if err != nil {
		return err
	}
	outs := make([][]sqltypes.Row, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[w] = govern.Recovered(p)
				}
			}()
			outs[w], errs[w] = j.joinPartition(leftParts[w], rightParts[w])
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	var total int
	for _, o := range outs {
		total += len(o)
	}
	j.out = make([]sqltypes.Row, 0, total)
	for _, o := range outs {
		j.out = append(j.out, o...)
	}
	if j.env.Stats != nil {
		if st := j.env.Stats[plan.Node(j.node)]; st != nil {
			st.Workers = st.Workers[:0]
			for _, o := range outs {
				st.Workers = append(st.Workers, &OpStats{Rows: int64(len(o)), Loops: 1})
			}
		}
	}
	return nil
}

// partition drains an input into workers buckets keyed by the join-key hash.
func (j *partHashJoinOp) partition(in Operator, keys []expr.Expr, env *expr.Env, workers int) ([][]partRow, error) {
	if err := in.Open(); err != nil {
		return nil, err
	}
	defer in.Close()
	parts := make([][]partRow, workers)
	h := fnv.New32a()
	tick := j.env.newTick()
	for {
		row, ok, err := in.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return parts, nil
		}
		env.Row = row
		var buf []byte
		null := false
		for _, k := range keys {
			v, err := expr.Eval(k, env)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				null = true
				break
			}
			buf = sqltypes.EncodeKey(buf, v)
		}
		if null {
			continue
		}
		// Both inputs are fully materialized into partitions: charge each row.
		if err := tick.chargeRow(row); err != nil {
			return nil, err
		}
		h.Reset()
		h.Write(buf)
		p := int(h.Sum32()) % workers
		parts[p] = append(parts[p], partRow{key: string(buf), row: row.Clone()})
	}
}

// joinPartition builds a hash table over one right bucket and probes it with
// the matching left bucket. Runs on its own worker goroutine with its own
// expression environment.
func (j *partHashJoinOp) joinPartition(left, right []partRow) ([]sqltypes.Row, error) {
	if len(left) == 0 || len(right) == 0 {
		return nil, nil
	}
	table := make(map[string][]sqltypes.Row, len(right))
	for _, r := range right {
		table[r.key] = append(table[r.key], r.row)
	}
	env := &expr.Env{Params: j.params}
	var out []sqltypes.Row
	for _, l := range left {
		for _, cand := range table[l.key] {
			combined := make(sqltypes.Row, len(l.row)+len(cand))
			copy(combined, l.row)
			copy(combined[len(l.row):], cand)
			if j.node.Residual != nil {
				env.Row = combined
				pass, err := expr.EvalBool(j.node.Residual, env)
				if err != nil {
					return nil, err
				}
				if !pass {
					continue
				}
			}
			out = append(out, combined)
		}
	}
	return out, nil
}

func (j *partHashJoinOp) Next() (sqltypes.Row, bool, error) {
	if j.pos >= len(j.out) {
		return nil, false, nil
	}
	row := j.out[j.pos]
	j.pos++
	return row, true, nil
}

func (j *partHashJoinOp) Close() {}
