package benchmark

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"ordxml"
	"ordxml/internal/core/xpath"
	"ordxml/internal/sqldb"
	"ordxml/internal/sqldb/bufpool"
	"ordxml/internal/sqldb/pagefile"
)

// store is one encoding's store under test and the document loaded into it.
type store struct {
	s   *ordxml.Store
	doc ordxml.DocID
	dir string // "" for a memory store
}

// openStore opens a store for encoding e: in memory when frames is 0, else a
// durable paged store with that many buffer-pool frames in a fresh directory
// under env.scratch. The flush policy is the engine's default: one WAL fsync
// per mutation.
func openStore(env *env, e int, frames int) (*store, error) {
	opts := ordxml.Options{Encoding: encodings[e].enc, BufferPoolFrames: frames}
	if frames == 0 {
		s, err := ordxml.Open(opts)
		return &store{s: s}, err
	}
	dir, err := os.MkdirTemp(env.scratch, "store-"+encodings[e].name+"-")
	if err != nil {
		return nil, err
	}
	s, err := ordxml.OpenDurable(dir, opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &store{s: s, dir: dir}, nil
}

// load stores the document and, on a durable store, checkpoints it, as one
// timed operation of t.
func (st *store) load(t *timer, xml string) error {
	if st.dir == "" {
		return t.stage(func() (err error) {
			st.doc, err = st.s.LoadString("bench", xml)
			return err
		})
	}
	return withoutGC(func() error {
		return t.stage(func() (err error) {
			if st.doc, err = st.s.LoadString("bench", xml); err != nil {
				return err
			}
			return st.s.Checkpoint()
		})
	})
}

// discard closes the store and removes its directory.
func (st *store) discard() {
	if st == nil {
		return
	}
	if st.s != nil {
		withoutGC(st.s.Close)
		st.s = nil
	}
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
}

// The files of a paged durable store, as durable.go documents them.
const (
	pagesFile    = "pages.db"
	manifestFile = "meta.db"
)

// storedBytes is the space metric. A memory store reports the heap bytes of
// its node table (the paper's E1). A durable store is checkpointed and then
// reports the pages that checkpoint references plus the page file's header
// page, at pagefile.PageSize each, plus the size of every other file in its
// directory (manifest, log). The size of pages.db itself would not do: the
// file grows 2 MiB at a time and keeps the pages shadow paging has freed.
func (st *store) storedBytes() (float64, error) {
	if st.dir == "" {
		return float64(st.s.Storage().HeapBytes), nil
	}
	// Pages the store has superseded go back to the allocator from GC
	// finalizers, some of them only once another finalizer has run: settle
	// here as well as inside withoutGC, or the count varies by a page.
	settle()
	if err := withoutGC(st.s.Checkpoint); err != nil {
		return 0, err
	}
	pages, err := checkpointPages(st.dir)
	if err != nil {
		return 0, err
	}
	total := int64(pages+1) * pagefile.PageSize
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return 0, err
	}
	for _, ent := range entries {
		if ent.Name() == pagesFile {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return float64(total), nil
}

// checkpointPages counts the pages the last checkpoint in dir references: it
// opens the checkpoint's manifest over a buffer pool of its own, which reads
// the allocator state and the page lists and no page.
func checkpointPages(dir string) (int, error) {
	pf, err := pagefile.Open(filepath.Join(dir, pagesFile))
	if err != nil {
		return 0, err
	}
	defer pf.Close()
	manifest, err := os.Open(filepath.Join(dir, manifestFile))
	if err != nil {
		return 0, err
	}
	defer manifest.Close()
	pool := bufpool.New(pf, 0)
	db, err := sqldb.LoadPaged(manifest, pool)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", manifest.Name(), err)
	}
	n := len(pool.DurableIDs())
	runtime.KeepAlive(db) // its heaps free their page ids when collected
	return n, nil
}

// query is one entry of the paper's ordered query suite.
type query struct {
	name  string // q1..q9
	xpath string
}

// querySuite is the E3 suite of EXPERIMENTS.md for a catalog with the given
// items per region, copied here so the benchmark does not depend on the
// experiment harness it replaces.
func querySuite(items int) []query {
	mid := max(items/2, 1)
	return []query{
		{"q1", "/site/regions/namerica/item"},                                               // full path, no order
		{"q2", fmt.Sprintf("/site/regions/namerica/item[%d]", mid)},                         // position predicate
		{"q3", "/site/regions/namerica/item[position() <= 10]"},                             // position range
		{"q4", "/site/regions/namerica/item[3]/following-sibling::item"},                    // following-sibling
		{"q5", fmt.Sprintf("/site/regions/namerica/item[%d]/preceding-sibling::item", mid)}, // preceding-sibling
		{"q6", "//keyword"}, // descendant axis
		{"q7", fmt.Sprintf("//item[@id = 'item%d']", mid)}, // point lookup by attribute
		{"q8", "//item[quantity = '5']"},                   // value filter via descendant
		{"q9", "/site/regions/namerica//keyword"},          // mid-path descendant
	}
}

// queryWorkload runs the suite against one loaded document per encoding:
// query_mem on memory stores, query_paged on durable stores whose buffer pool
// is smaller than the working set.
type queryWorkload struct {
	frames int
	suite  []query
	want   []int // result count per query, from the oracle
	nodes  int
	stores [3]*store
}

func (w *queryWorkload) setUp(env *env, t *timer) error {
	var c *corpus
	if err := t.stage(func() (err error) { c, err = generate(env.items, env.seed); return }); err != nil {
		return err
	}
	w.nodes = c.nodes
	w.suite = querySuite(env.items)
	for e := range encodings {
		err := t.stage(func() (err error) {
			w.stores[e], err = openStore(env, e, w.frames)
			return err
		})
		if err == nil {
			err = w.stores[e].load(t, c.xml)
		}
		if err != nil {
			return err
		}
	}
	// Oracle: every query's string values on every encoding equal the
	// in-memory evaluator's on the generated tree.
	w.want = make([]int, len(w.suite))
	for i, q := range w.suite {
		var want []string
		err := t.stage(func() error {
			nodes, err := xpath.EvalString(c.tree, q.xpath)
			want = xpath.StringValues(nodes)
			return err
		})
		if err != nil {
			return err
		}
		w.want[i] = len(want)
		for e, st := range w.stores {
			err := t.stage(func() error {
				got, err := st.s.QueryValues(st.doc, q.xpath)
				if err != nil {
					return err
				}
				if !slices.Equal(got, want) {
					return fmt.Errorf("%s on %s: %d values, oracle has %d (or they differ)", q.name, encodings[e].name, len(got), len(want))
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *queryWorkload) cycle(e int, c *cycle) error {
	st := w.stores[e]
	for i, q := range w.suite {
		err := c.op(q.name, func() error {
			nodes, err := st.s.Query(st.doc, q.xpath)
			if err != nil {
				return err
			}
			if len(nodes) != w.want[i] {
				return fmt.Errorf("%d results, want %d", len(nodes), w.want[i])
			}
			c.results += len(nodes)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *queryWorkload) metrics(e int) ordxml.Metrics { return w.stores[e].s.Metrics() }

func (w *queryWorkload) finish(*clock) (stored [3]float64, extra map[string]float64, err error) {
	for e, st := range w.stores {
		b, err := st.storedBytes()
		if err != nil {
			return stored, nil, err
		}
		stored[e] = b / float64(w.nodes)
	}
	return stored, nil, nil
}

func (w *queryWorkload) tearDown() {
	for _, st := range w.stores {
		st.discard()
	}
}
