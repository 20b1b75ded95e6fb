package benchmark

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"ordxml"
	"ordxml/internal/core/dewey"
	"ordxml/internal/core/encoding"
	"ordxml/internal/core/publish"
	"ordxml/internal/core/shred"
	"ordxml/internal/core/translate"
	"ordxml/internal/core/xpath"
	"ordxml/internal/sqldb"
	"ordxml/internal/sqldb/btree"
	"ordxml/internal/sqldb/bufpool"
	"ordxml/internal/sqldb/heap"
	"ordxml/internal/sqldb/pagefile"
	"ordxml/internal/sqldb/sqlparse"
	"ordxml/internal/wal"
	"ordxml/internal/xmltree"
)

// A probe measures one layer by calling its exported functions directly, on
// fixed inputs drawn from a seeded generator, so that a change seen in a
// workload can be bisected to a layer. Probe values are calibrated like every
// other time, and are the median over the repetitions.

// probeCtx is what a probe builds its inputs from.
type probeCtx struct {
	dir    string     // existing directory for the probe's files
	rng    *rand.Rand // seeded per probe
	corpus *corpus    // the small corpus (sideItems)
	suite  []query
}

// measured is one prepared probe.
type measured struct {
	// prep, when set, runs untimed before every repetition.
	prep func() error
	// body is the timed work of one repetition; it returns how many
	// operations it did, and the probe's value is the time per operation.
	body func() (ops int, err error)
	// ratio, when set instead of body, yields the value directly: the probe
	// measures a share, not a time.
	ratio func() (float64, error)
	// close releases what the probe opened.
	close func()
}

type probe struct {
	name   string // a ".{enc}" suffix stands for one probe per encoding
	unit   string
	better string
	build  func(px *probeCtx, e int) (*measured, error)
}

var kinds = [3]encoding.Kind{encoding.Global, encoding.Local, encoding.Dewey}

const (
	probeKeys  = 50_000 // entries of the probed trees and heaps
	probePages = 1024   // pages of the probed page files
)

// probeKey is an 8-byte big-endian key, ordered like its integer.
func probeKey(i uint64) []byte { return binary.BigEndian.AppendUint64(nil, i) }

// sortedItems is probeKeys ascending keys with made-up RIDs.
func sortedItems() []btree.Item {
	items := make([]btree.Item, probeKeys)
	for i := range items {
		items[i] = btree.Item{Key: probeKey(uint64(i) * 7), RID: heap.RID{Page: uint32(i / 100), Slot: uint16(i % 100)}}
	}
	return items
}

// newPool opens a pool of the given capacity over a fresh page file.
func newPool(px *probeCtx, frames int) (*bufpool.Pool, func(), error) {
	f, err := pagefile.Create(filepath.Join(px.dir, "probe.db"))
	if err != nil {
		return nil, nil, err
	}
	return bufpool.New(f, frames), func() { f.Close() }, nil
}

// filledPool allocates probePages pages in a pool of the given capacity,
// flushes them, and returns their ids.
func filledPool(px *probeCtx, frames int) (*bufpool.Pool, []bufpool.PageID, func(), error) {
	pool, closePool, err := newPool(px, frames)
	if err != nil {
		return nil, nil, nil, err
	}
	ids := make([]bufpool.PageID, probePages)
	for i := range ids {
		fr, err := pool.Alloc()
		if err != nil {
			closePool()
			return nil, nil, nil, err
		}
		binary.LittleEndian.PutUint64(fr.MarkDirty(), uint64(i))
		ids[i] = fr.ID()
		fr.Unpin()
		if i%64 == 63 { // keep the dirty set below any capacity the probes use
			if err := pool.FlushAll(); err != nil {
				closePool()
				return nil, nil, nil, err
			}
		}
	}
	if err := pool.FlushAll(); err != nil {
		closePool()
		return nil, nil, nil, err
	}
	return pool, ids, closePool, nil
}

// hitPct replays a page trace against a pool and returns its hit share.
func hitPct(pool *bufpool.Pool, trace []bufpool.PageID) float64 {
	before := pool.Stats()
	for _, id := range trace {
		pool.Fetch(id).Unpin()
	}
	after := pool.Stats()
	hits := float64(after.Hits - before.Hits)
	return pct(hits, hits+float64(after.Misses-before.Misses))
}

// loadedDB is an engine database holding the small corpus under one encoding.
func loadedDB(px *probeCtx, e int) (*sqldb.DB, encoding.Options, int64, error) {
	opts := encoding.Options{Kind: kinds[e]}
	db := sqldb.Open()
	if err := encoding.Install(db, opts); err != nil {
		return nil, opts, 0, err
	}
	sh, err := shred.New(db, opts)
	if err != nil {
		return nil, opts, 0, err
	}
	doc, err := sh.LoadTree("probe", px.corpus.tree)
	return db, opts, doc, err
}

// pointTable is a 10 000-row table with a unique index on id.
func pointTable() (*sqldb.DB, error) {
	db := sqldb.Open()
	for _, stmt := range []string{`CREATE TABLE t (id INT NOT NULL, v TEXT NOT NULL)`, `CREATE UNIQUE INDEX t_id ON t (id)`} {
		if _, err := db.Exec(stmt); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 10_000; i++ {
		if _, err := db.Exec(`INSERT INTO t (id, v) VALUES (?, ?)`, sqldb.I(int64(i)), sqldb.S(fmt.Sprintf("value %d", i))); err != nil {
			return nil, err
		}
	}
	return db, nil
}

var probes = []probe{
	{"xmltree.parse_ms", "ms", "lower", func(px *probeCtx, _ int) (*measured, error) {
		return &measured{body: func() (int, error) {
			_, err := xmltree.ParseString(px.corpus.xml)
			return 1, err
		}}, nil
	}},
	{"xpath.parse_us", "us", "lower", func(px *probeCtx, _ int) (*measured, error) {
		return &measured{body: func() (int, error) {
			const loops = 2000
			for i := 0; i < loops; i++ {
				for _, q := range px.suite {
					if _, err := xpath.Parse(q.xpath); err != nil {
						return 0, err
					}
				}
			}
			return loops * len(px.suite), nil
		}}, nil
	}},
	{"sqlparse.parse_us", "us", "lower", func(px *probeCtx, _ int) (*measured, error) {
		// The statements the translator emits for Q1-Q9, all encodings.
		var stmts []string
		for e := range kinds {
			db, opts, doc, err := loadedDB(px, e)
			if err != nil {
				return nil, err
			}
			ev, err := translate.New(db, opts)
			if err != nil {
				return nil, err
			}
			for _, q := range px.suite {
				if _, err := ev.Query(doc, q.xpath); err != nil {
					return nil, err
				}
				stmts = append(stmts, ev.LastSQL()...)
			}
		}
		return &measured{body: func() (int, error) {
			const loops = 20
			for i := 0; i < loops; i++ {
				for _, s := range stmts {
					if _, err := sqlparse.Parse(s); err != nil {
						return 0, err
					}
				}
			}
			return loops * len(stmts), nil
		}}, nil
	}},
	{"dewey.encode_ns", "ns", "lower", func(px *probeCtx, _ int) (*measured, error) {
		paths := randomPaths(px.rng, 20_000)
		buf := make([]byte, 0, 64)
		return &measured{body: func() (int, error) {
			const loops = 20
			for i := 0; i < loops; i++ {
				for _, p := range paths {
					buf = p.AppendBytes(buf[:0])
				}
			}
			return loops * len(paths), nil
		}}, nil
	}},
	{"dewey.compare_ns", "ns", "lower", func(px *probeCtx, _ int) (*measured, error) {
		paths := randomPaths(px.rng, 20_000)
		return &measured{body: func() (int, error) {
			const loops = 50
			n := 0
			for l := 0; l < loops; l++ {
				for i := 1; i < len(paths); i++ {
					n += dewey.Compare(paths[i-1], paths[i])
				}
			}
			sink = n
			return loops * (len(paths) - 1), nil
		}}, nil
	}},
	{"translate.suite_ms.{enc}", "ms", "lower", func(px *probeCtx, e int) (*measured, error) {
		db, opts, doc, err := loadedDB(px, e)
		if err != nil {
			return nil, err
		}
		ev, err := translate.New(db, opts)
		if err != nil {
			return nil, err
		}
		return &measured{body: func() (int, error) {
			for _, q := range px.suite {
				if _, err := ev.Query(doc, q.xpath); err != nil {
					return 0, err
				}
			}
			return 1, nil
		}}, nil
	}},
	{"shred.loadtree_ms.{enc}", "ms", "lower", func(px *probeCtx, e int) (*measured, error) {
		return &measured{body: func() (int, error) {
			_, _, _, err := loadedDB(px, e)
			return 1, err
		}}, nil
	}},
	{"publish.tree_ms.{enc}", "ms", "lower", func(px *probeCtx, e int) (*measured, error) {
		db, opts, doc, err := loadedDB(px, e)
		if err != nil {
			return nil, err
		}
		pub, err := publish.New(db, opts)
		if err != nil {
			return nil, err
		}
		return &measured{body: func() (int, error) {
			tree, err := pub.Document(doc)
			if err == nil && tree.Size() != px.corpus.nodes {
				err = fmt.Errorf("published %d nodes, want %d", tree.Size(), px.corpus.nodes)
			}
			return 1, err
		}}, nil
	}},
	{"btree.bulkload_ns", "ns", "lower", func(*probeCtx, int) (*measured, error) {
		items := sortedItems()
		return &measured{body: func() (int, error) {
			const loops = 10
			for i := 0; i < loops; i++ {
				if _, err := btree.BulkLoad(items); err != nil {
					return 0, err
				}
			}
			return loops * len(items), nil
		}}, nil
	}},
	{"btree.insert_ns", "ns", "lower", func(px *probeCtx, _ int) (*measured, error) {
		items := sortedItems()
		px.rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		return &measured{body: func() (int, error) {
			t := btree.New()
			for _, it := range items {
				if err := t.Insert(it.Key, it.RID); err != nil {
					return 0, err
				}
			}
			return len(items), nil
		}}, nil
	}},
	{"btree.get_ns", "ns", "lower", func(px *probeCtx, _ int) (*measured, error) {
		items := sortedItems()
		t, err := btree.BulkLoad(items)
		if err != nil {
			return nil, err
		}
		px.rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		return &measured{body: func() (int, error) {
			for _, it := range items {
				if _, ok := t.Get(it.Key); !ok {
					return 0, fmt.Errorf("key %x is missing", it.Key)
				}
			}
			return len(items), nil
		}}, nil
	}},
	{"btree.scan_ns", "ns", "lower", func(*probeCtx, int) (*measured, error) {
		t, err := btree.BulkLoad(sortedItems())
		if err != nil {
			return nil, err
		}
		return &measured{body: func() (int, error) {
			const loops = 50
			n := 0
			for i := 0; i < loops; i++ {
				for it := t.Seek(nil, nil); it.Valid(); it.Next() {
					n++
				}
			}
			if n != loops*probeKeys {
				return 0, fmt.Errorf("scans saw %d entries, want %d", n, loops*probeKeys)
			}
			return n, nil
		}}, nil
	}},
	{"btree.paged_get_ns", "ns", "lower", func(px *probeCtx, _ int) (*measured, error) {
		// Lookups on a tree restored from its pages: every node first
		// touched is fetched from a warm pool and decoded.
		pool, closePool, err := newPool(px, 4*probePages)
		if err != nil {
			return nil, err
		}
		built := btree.NewPaged(pool)
		items := sortedItems()
		for _, it := range items {
			if err := built.Insert(it.Key, it.RID); err != nil {
				closePool()
				return nil, err
			}
		}
		root, err := built.WritePages()
		if err == nil {
			err = pool.FlushAll()
		}
		if err != nil {
			closePool()
			return nil, err
		}
		px.rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		items = items[:5000]
		return &measured{close: closePool, body: func() (int, error) {
			t := btree.Restore(pool, root, probeKeys)
			for _, it := range items {
				if _, ok := t.Get(it.Key); !ok {
					return 0, fmt.Errorf("key %x is missing", it.Key)
				}
			}
			return len(items), nil
		}}, nil
	}},
	{"heap.append_ns", "ns", "lower", func(px *probeCtx, _ int) (*measured, error) {
		rows := randomRows(px.rng, probeKeys)
		return &measured{body: func() (int, error) {
			const loops = 5
			for i := 0; i < loops; i++ {
				if _, err := heap.New().AppendBatch(rows); err != nil {
					return 0, err
				}
			}
			return loops * len(rows), nil
		}}, nil
	}},
	{"heap.get_ns", "ns", "lower", func(px *probeCtx, _ int) (*measured, error) {
		return heapGet(px, heap.New(), nil)
	}},
	{"heap.paged_get_ns", "ns", "lower", func(px *probeCtx, _ int) (*measured, error) {
		pool, closePool, err := newPool(px, 4*probePages)
		if err != nil {
			return nil, err
		}
		return heapGet(px, heap.NewPaged(pool), closePool)
	}},
	{"bufpool.fetch_hit_ns", "ns", "lower", func(px *probeCtx, _ int) (*measured, error) {
		pool, ids, closePool, err := filledPool(px, 2*probePages)
		if err != nil {
			return nil, err
		}
		return &measured{close: closePool, body: func() (int, error) {
			const loops = 50
			for i := 0; i < loops; i++ {
				for _, id := range ids {
					pool.Fetch(id).Unpin()
				}
			}
			return loops * len(ids), nil
		}}, nil
	}},
	{"bufpool.fetch_miss_us", "us", "lower", func(px *probeCtx, _ int) (*measured, error) {
		// A cyclic sweep over 16 times the capacity: with the clock policy
		// every fetch misses and reads its page from the file.
		pool, ids, closePool, err := filledPool(px, probePages/16)
		if err != nil {
			return nil, err
		}
		return &measured{close: closePool, body: func() (int, error) {
			for _, id := range ids {
				pool.Fetch(id).Unpin()
			}
			return len(ids), nil
		}}, nil
	}},
	{"bufpool.loop_hit_pct", "%", "higher", func(px *probeCtx, _ int) (*measured, error) {
		pool, ids, closePool, err := filledPool(px, probePages/2)
		if err != nil {
			return nil, err
		}
		var trace []bufpool.PageID
		for loop := 0; loop < 4; loop++ {
			trace = append(trace, ids...)
		}
		return &measured{close: closePool, ratio: func() (float64, error) { return hitPct(pool, trace), nil }}, nil
	}},
	{"bufpool.skew_hit_pct", "%", "higher", func(px *probeCtx, _ int) (*measured, error) {
		// 80 % of the fetches go to 20 % of the pages; the pool holds 25 %.
		pool, ids, closePool, err := filledPool(px, probePages/4)
		if err != nil {
			return nil, err
		}
		hot := len(ids) / 5
		trace := make([]bufpool.PageID, 20_000)
		for i := range trace {
			if px.rng.Intn(100) < 80 {
				trace[i] = ids[px.rng.Intn(hot)]
			} else {
				trace[i] = ids[hot+px.rng.Intn(len(ids)-hot)]
			}
		}
		return &measured{close: closePool, ratio: func() (float64, error) { return hitPct(pool, trace), nil }}, nil
	}},
	{"pagefile.read_us", "us", "lower", func(px *probeCtx, _ int) (*measured, error) {
		f, order, err := writtenFile(px)
		if err != nil {
			return nil, err
		}
		return &measured{close: func() { f.Close() }, body: func() (int, error) {
			for _, id := range order {
				if _, _, err := f.ReadPage(id); err != nil {
					return 0, err
				}
			}
			return len(order), nil
		}}, nil
	}},
	{"pagefile.write_us", "us", "lower", func(px *probeCtx, _ int) (*measured, error) {
		f, order, err := writtenFile(px)
		if err != nil {
			return nil, err
		}
		payload := make([]byte, pagefile.PayloadSize)
		return &measured{close: func() { f.Close() }, body: func() (int, error) {
			for i, id := range order {
				payload[0] = byte(i)
				if err := f.WritePage(id, uint64(i), payload); err != nil {
					return 0, err
				}
			}
			return len(order), nil
		}}, nil
	}},
	{"pagefile.sync_us", "us", "lower", func(px *probeCtx, _ int) (*measured, error) {
		f, order, err := writtenFile(px)
		if err != nil {
			return nil, err
		}
		payload := make([]byte, pagefile.PayloadSize)
		return &measured{close: func() { f.Close() }, body: func() (int, error) {
			const syncs = 8
			for i := 0; i < syncs; i++ {
				for _, id := range order[i*4 : i*4+4] { // four dirty pages per sync
					if err := f.WritePage(id, uint64(i), payload); err != nil {
						return 0, err
					}
				}
				if err := f.Sync(); err != nil {
					return 0, err
				}
			}
			return syncs, nil
		}}, nil
	}},
	{"wal.append_us", "us", "lower", func(px *probeCtx, _ int) (*measured, error) {
		return walAppend(px, 8000, false)
	}},
	{"wal.append_sync_us", "us", "lower", func(px *probeCtx, _ int) (*measured, error) {
		return walAppend(px, 32, true)
	}},
	{"wal.replay_us", "us", "lower", func(px *probeCtx, _ int) (*measured, error) {
		const records = 50_000
		path := filepath.Join(px.dir, "replay.log")
		log, err := wal.Open(path, nil)
		if err != nil {
			return nil, err
		}
		body := make([]byte, 120)
		for i := 0; i < records; i++ {
			if _, err := log.Append(1, body); err != nil {
				log.Close()
				return nil, err
			}
		}
		if err := log.Close(); err != nil {
			return nil, err
		}
		return &measured{body: func() (int, error) {
			log, err := wal.Open(path, nil)
			if err != nil {
				return 0, err
			}
			defer log.Close()
			n := 0
			err = log.Replay(0, func(wal.Record) error { n++; return nil })
			if err == nil && n != records {
				err = fmt.Errorf("replayed %d records, want %d", n, records)
			}
			return n, err
		}}, nil
	}},
	{"plan.cold_us", "us", "lower", func(*probeCtx, int) (*measured, error) {
		// Every statement text is new to the plan cache: parse and plan.
		db, err := pointTable()
		if err != nil {
			return nil, err
		}
		serial := 0
		return &measured{body: func() (int, error) {
			const stmts = 2000
			for i := 0; i < stmts; i++ {
				serial++
				res, err := db.Query(fmt.Sprintf(`SELECT v FROM t WHERE id = 77 AND v <> 'x%d'`, serial))
				if err == nil && len(res.Rows) != 1 {
					err = fmt.Errorf("%d rows, want 1", len(res.Rows))
				}
				if err != nil {
					return 0, err
				}
			}
			return stmts, nil
		}}, nil
	}},
	{"exec.point_select_us", "us", "lower", func(*probeCtx, int) (*measured, error) {
		db, err := pointTable()
		if err != nil {
			return nil, err
		}
		return &measured{body: func() (int, error) {
			const lookups = 5000
			for i := 0; i < lookups; i++ {
				res, err := db.Query(`SELECT v FROM t WHERE id = ?`, sqldb.I(int64(i*7%10_000)))
				if err == nil && len(res.Rows) != 1 {
					err = fmt.Errorf("%d rows, want 1", len(res.Rows))
				}
				if err != nil {
					return 0, err
				}
			}
			return lookups, nil
		}}, nil
	}},
	{"ordxml.drop_ms.{enc}", "ms", "lower", func(px *probeCtx, e int) (*measured, error) {
		var (
			s   *ordxml.Store
			doc ordxml.DocID
		)
		return &measured{
			prep: func() (err error) {
				if s, err = ordxml.Open(ordxml.Options{Encoding: encodings[e].enc}); err != nil {
					return err
				}
				doc, err = s.LoadString("probe", px.corpus.xml)
				return err
			},
			body: func() (int, error) { return 1, s.Drop(doc) },
		}, nil
	}},
}

// sink keeps results the compiler could otherwise discard.
var sink int

func randomPaths(rng *rand.Rand, n int) []dewey.Path {
	paths := make([]dewey.Path, n)
	for i := range paths {
		p := make(dewey.Path, 2+rng.Intn(6))
		for j := range p {
			p[j] = uint32(1 + rng.Intn(1000))
		}
		paths[i] = p
	}
	return paths
}

func randomRows(rng *rand.Rand, n int) [][]byte {
	rows := make([][]byte, n)
	for i := range rows {
		rows[i] = make([]byte, 24+rng.Intn(32))
		rng.Read(rows[i])
	}
	return rows
}

// heapGet probes random reads of a heap filled with probeKeys rows.
func heapGet(px *probeCtx, h *heap.Heap, closeFn func()) (*measured, error) {
	rids, err := h.AppendBatch(randomRows(px.rng, probeKeys))
	if err != nil {
		if closeFn != nil {
			closeFn()
		}
		return nil, err
	}
	px.rng.Shuffle(len(rids), func(i, j int) { rids[i], rids[j] = rids[j], rids[i] })
	return &measured{close: closeFn, body: func() (int, error) {
		const loops = 10
		for i := 0; i < loops; i++ {
			for _, rid := range rids {
				if _, err := h.Get(rid); err != nil {
					return 0, err
				}
			}
		}
		return loops * len(rids), nil
	}}, nil
}

// writtenFile is a page file of probePages written pages and a shuffled
// order to visit them in.
func writtenFile(px *probeCtx) (*pagefile.File, []pagefile.PageID, error) {
	f, err := pagefile.Create(filepath.Join(px.dir, "pages.db"))
	if err != nil {
		return nil, nil, err
	}
	if err := f.EnsureSize(probePages); err != nil {
		f.Close()
		return nil, nil, err
	}
	payload := make([]byte, pagefile.PayloadSize)
	order := make([]pagefile.PageID, probePages)
	for i := range order {
		order[i] = pagefile.PageID(i + 1)
		if err := f.WritePage(order[i], 0, payload); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	px.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return f, order, nil
}

// walAppend probes n appends of a 120-byte record per repetition, each made
// durable on its own (sync) or all by one final Sync.
func walAppend(px *probeCtx, n int, sync bool) (*measured, error) {
	log, err := wal.Open(filepath.Join(px.dir, "append.log"), nil)
	if err != nil {
		return nil, err
	}
	body := make([]byte, 120)
	return &measured{close: func() { log.Close() }, body: func() (int, error) {
		for i := 0; i < n; i++ {
			var err error
			if sync {
				_, err = log.AppendSync(1, body)
			} else {
				_, err = log.Append(1, body)
			}
			if err != nil {
				return 0, err
			}
		}
		return n, log.Sync()
	}}, nil
}

// unitPerMs is how many of a time unit make a millisecond.
var unitPerMs = map[string]float64{"ms": 1, "us": 1e3, "ns": 1e6}

// runProbes measures every probe, reps repetitions each, into values.
func runProbes(cfg Config, reps int, values map[string]float64) error {
	if err := os.MkdirAll(cfg.Scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.Scratch, "ordbench-probes-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := generate(sideItems, cfg.Seed)
	if err != nil {
		return err
	}
	clk := newClock()
	for i, p := range probes {
		base, perEncoding := strings.CutSuffix(p.name, ".{enc}")
		for e, enc := range encodings {
			name := p.name
			if perEncoding {
				name = base + "." + enc.name
			} else if e > 0 {
				break
			}
			pdir, err := os.MkdirTemp(dir, "p-")
			if err != nil {
				return err
			}
			px := &probeCtx{dir: pdir, rng: rand.New(rand.NewSource(cfg.Seed + int64(i))), corpus: c, suite: querySuite(sideItems)}
			v, err := measure(clk, p, px, e, reps)
			if err != nil {
				return fmt.Errorf("probe %s: %w", name, err)
			}
			values[name] = v
		}
	}
	return nil
}

func measure(clk *clock, p probe, px *probeCtx, e int, reps int) (float64, error) {
	m, err := p.build(px, e)
	if err != nil {
		return 0, err
	}
	if m.close != nil {
		defer m.close()
	}
	if m.ratio != nil {
		return m.ratio()
	}
	var xs []float64
	for rep := 0; rep < reps; rep++ {
		if m.prep != nil {
			if err := m.prep(); err != nil {
				return 0, err
			}
		}
		t := timer{clk: clk}
		var ops int
		if err := t.stage(func() (err error) { ops, err = m.body(); return }); err != nil {
			return 0, err
		}
		t.sample()
		xs = append(xs, t.calibrated(t.wall)*unitPerMs[p.unit]/float64(ops))
	}
	return median(xs), nil
}
