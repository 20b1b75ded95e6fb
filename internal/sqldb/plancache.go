package sqldb

import (
	"container/list"
	"sync"

	"ordxml/internal/obs"
	"ordxml/internal/sqldb/sqlparse"
)

// planCacheCap bounds the number of cached statements. The XML layer
// generates a closed family of SQL shapes (a few dozen per encoding), so the
// cap exists only to bound ad-hoc query churn.
const planCacheCap = 512

// planCacheShards splits the cache into independently locked shards so
// concurrent readers on different statements never contend on one mutex.
// Must be a power of two.
const planCacheShards = 16

// cacheEntry is one cached statement: the parsed AST plus the compiled plan
// and the catalog version the plan was built against.
type cacheEntry struct {
	sql     string
	stmt    sqlparse.Statement
	version uint64
	plan    any // plan.Node for SELECT; *plan.InsertPlan etc. for DML
}

// cacheShard is one independently locked LRU slice of the cache.
type cacheShard struct {
	mu    sync.Mutex
	items map[string]*list.Element
	lru   *list.List // front = most recently used
}

// planCache is a sharded LRU map from SQL text to parsed statement +
// compiled plan — the engine's only statement cache: callers keep SQL text,
// not statement handles, and DB.open / DB.exec look it up once per
// statement. Every lookup revalidates the entry against the current
// catalog version, which DDL bumps — so CREATE/DROP TABLE/INDEX can never
// serve a stale plan. A stale entry still yields its parsed AST (parsing is
// schema-independent), so only planning repeats after DDL.
//
// Plans are shared across executions and across concurrent queries: plan
// trees are read-only after planning (parameters bind at execution inside
// the operator tree), which is what makes the cache safe for the engine's
// lock-free readers. Statements hash to shards by SQL text, so the hot
// statements of concurrent readers spread across planCacheShards mutexes
// instead of serializing on one.
type planCache struct {
	shards [planCacheShards]cacheShard

	// hits/misses live in the DB's metrics registry (sqldb.plancache.*, next
	// to the sqldb.plancache.entries gauge) so cache behaviour shows up in
	// Metrics() snapshots. A hit is a statement that ran without parsing or
	// planning; a miss covers absent entries and entries invalidated by DDL.
	// obs counters are atomic, so the counts stay exact across shards.
	hits   *obs.Counter
	misses *obs.Counter
}

func newPlanCache(reg *obs.Registry) *planCache {
	pc := &planCache{
		hits:   reg.Counter("sqldb.plancache.hits"),
		misses: reg.Counter("sqldb.plancache.misses"),
	}
	for i := range pc.shards {
		pc.shards[i].items = map[string]*list.Element{}
		pc.shards[i].lru = list.New()
	}
	reg.RegisterFunc("sqldb.plancache.entries", func() int64 { return int64(pc.len()) })
	return pc
}

// shardFor hashes the SQL text (FNV-1a) onto a shard.
func (pc *planCache) shardFor(sql string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(sql); i++ {
		h ^= uint32(sql[i])
		h *= 16777619
	}
	return &pc.shards[h&(planCacheShards-1)]
}

// lookup returns the cached parse and plan for sql. plan is non-nil only
// when the entry was built against catalog version ver (a hit); a stale or
// absent entry counts as a miss, returning the parsed statement when one is
// cached so the caller can skip re-parsing.
func (pc *planCache) lookup(sql string, ver uint64) (stmt sqlparse.Statement, plan any) {
	sh := pc.shardFor(sql)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[sql]
	if !ok {
		pc.misses.Inc()
		return nil, nil
	}
	sh.lru.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	if e.version != ver {
		pc.misses.Inc()
		return e.stmt, nil
	}
	pc.hits.Inc()
	return e.stmt, e.plan
}

// store records a freshly compiled plan, evicting the least recently used
// entry of the shard past its share of the capacity.
func (pc *planCache) store(sql string, stmt sqlparse.Statement, ver uint64, plan any) {
	sh := pc.shardFor(sql)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.items[sql]; ok {
		e := el.Value.(*cacheEntry)
		e.stmt, e.version, e.plan = stmt, ver, plan
		sh.lru.MoveToFront(el)
		return
	}
	sh.items[sql] = sh.lru.PushFront(&cacheEntry{sql: sql, stmt: stmt, version: ver, plan: plan})
	if sh.lru.Len() > planCacheCap/planCacheShards {
		oldest := sh.lru.Back()
		sh.lru.Remove(oldest)
		delete(sh.items, oldest.Value.(*cacheEntry).sql)
	}
}

func (pc *planCache) len() int {
	n := 0
	for i := range pc.shards {
		sh := &pc.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}
