package sqldb

import (
	"sync"
	"sync/atomic"
	"time"

	"ordxml/internal/obs"
	olog "ordxml/internal/obs/log"
)

// slowLogCap bounds the slow-query ring buffer.
const slowLogCap = 64

// DefaultSlowQueryThreshold is the initial slow-query log threshold.
const DefaultSlowQueryThreshold = 100 * time.Millisecond

// SlowQuery is one entry of the slow-query log.
type SlowQuery struct {
	SQL      string        `json:"sql"`
	Duration time.Duration `json:"duration_ns"`
	Rows     int           `json:"rows"`
}

// dbMetrics bundles the DB's instruments. All fields are resolved from the
// registry once at Open, so statement paths touch only atomics.
type dbMetrics struct {
	reg *obs.Registry

	queries     *obs.Counter   // sqldb.queries: SELECT statements executed
	queryErrors *obs.Counter   // sqldb.query.errors
	execs       *obs.Counter   // sqldb.execs: DDL/DML statements executed
	execErrors  *obs.Counter   // sqldb.exec.errors
	queryLat    *obs.Histogram // sqldb.query.latency
	execLat     *obs.Histogram // sqldb.exec.latency

	// Slow-query log: a preallocated ring so recording never allocates
	// beyond the SQL string already in hand.
	slowMu        sync.Mutex
	slowBuf       [slowLogCap]SlowQuery
	slowNext      int
	slowLen       int
	slowThreshold atomic.Int64 // nanoseconds; 0 disables
}

func newDBMetrics(reg *obs.Registry) *dbMetrics {
	m := &dbMetrics{
		reg:         reg,
		queries:     reg.Counter("sqldb.queries"),
		queryErrors: reg.Counter("sqldb.query.errors"),
		execs:       reg.Counter("sqldb.execs"),
		execErrors:  reg.Counter("sqldb.exec.errors"),
		queryLat:    reg.Histogram("sqldb.query.latency"),
		execLat:     reg.Histogram("sqldb.exec.latency"),
	}
	m.slowThreshold.Store(int64(DefaultSlowQueryThreshold))
	return m
}

// recordQuery accounts one Query call. Zero allocations when the statement is
// not slow: two counter adds, one histogram observe, one atomic load.
func (m *dbMetrics) recordQuery(sql string, d time.Duration, rows int, err error) {
	m.queries.Inc()
	m.queryLat.Observe(d)
	if err != nil {
		m.queryErrors.Inc()
		return
	}
	if thr := m.slowThreshold.Load(); thr > 0 && int64(d) >= thr {
		m.recordSlow(sql, d, rows)
	}
}

// recordExec accounts one Exec call.
func (m *dbMetrics) recordExec(sql string, d time.Duration, err error) {
	m.execs.Inc()
	m.execLat.Observe(d)
	if err != nil {
		m.execErrors.Inc()
		return
	}
	if thr := m.slowThreshold.Load(); thr > 0 && int64(d) >= thr {
		m.recordSlow(sql, d, -1)
	}
}

func (m *dbMetrics) recordSlow(sql string, d time.Duration, rows int) {
	m.slowMu.Lock()
	m.slowBuf[m.slowNext] = SlowQuery{SQL: sql, Duration: d, Rows: rows}
	m.slowNext = (m.slowNext + 1) % slowLogCap
	if m.slowLen < slowLogCap {
		m.slowLen++
	}
	m.slowMu.Unlock()
	// Rate-limited so a burst of slow statements costs one line, not 64.
	m.reg.Log().Every("sqldb.slow_query", time.Second, olog.LevelWarn,
		"slow query",
		olog.Str("sql", sql),
		olog.Dur("duration", d),
		olog.Int("rows", int64(rows)))
}

// slowQueries returns the logged entries, most recent last.
func (m *dbMetrics) slowQueries() []SlowQuery {
	m.slowMu.Lock()
	defer m.slowMu.Unlock()
	out := make([]SlowQuery, 0, m.slowLen)
	start := (m.slowNext - m.slowLen + slowLogCap) % slowLogCap
	for i := 0; i < m.slowLen; i++ {
		out = append(out, m.slowBuf[(start+i)%slowLogCap])
	}
	return out
}

// Registry exposes the DB's metrics registry so upper layers (the XPath
// evaluator, the benchmark harness) can hang their own instruments on it.
func (db *DB) Registry() *obs.Registry { return db.metrics.reg }

// Metrics returns a point-in-time snapshot of every engine metric: statement
// counts and latency histograms, plan-cache hit/miss counters, and the
// storage-layer heap-page/btree-node read counters.
func (db *DB) Metrics() obs.Snapshot { return db.metrics.reg.Snapshot() }

// SlowQueries returns the slow-query log, oldest first. The log keeps the
// last 64 statements whose wall time met the threshold.
func (db *DB) SlowQueries() []SlowQuery { return db.metrics.slowQueries() }

// SetSlowQueryThreshold sets the slow-query log threshold; 0 disables the
// log. The default is DefaultSlowQueryThreshold.
func (db *DB) SetSlowQueryThreshold(d time.Duration) {
	db.metrics.slowThreshold.Store(int64(d))
}

// SlowQueryThreshold returns the current slow-query threshold.
func (db *DB) SlowQueryThreshold() time.Duration {
	return time.Duration(db.metrics.slowThreshold.Load())
}

// registerStorageFuncs publishes the catalog's storage counters as read-only
// gauges so they appear in Metrics() snapshots alongside the SQL metrics.
func (db *DB) registerStorageFuncs() {
	c := &db.cat.Counters
	db.metrics.reg.RegisterFunc("storage.heap.page_reads", c.HeapPageReads.Load)
	db.metrics.reg.RegisterFunc("storage.btree.node_reads", c.BtreeNodeReads.Load)
	db.metrics.reg.RegisterFunc("storage.rows_scanned", c.RowsScanned.Load)
	db.metrics.reg.RegisterFunc("storage.index_probes", c.IndexProbes.Load)
	db.metrics.reg.RegisterFunc("storage.rows_inserted", c.RowsInserted.Load)
	db.metrics.reg.RegisterFunc("storage.rows_deleted", c.RowsDeleted.Load)
	db.metrics.reg.RegisterFunc("storage.rows_updated", c.RowsUpdated.Load)
	db.metrics.reg.RegisterFunc("storage.index_writes", c.IndexWrites.Load)
}
