package bench

import (
	"fmt"

	"ordxml"
	"ordxml/internal/xmltree"
)

// RunE1 measures storage cost per encoding across document sizes
// (reproduces the paper's storage comparison).
func RunE1(sizes []int) (Table, error) {
	t := Table{
		Title:  "E1: storage cost by encoding",
		Note:   "bytes are live heap bytes of the node table (indexes excluded)",
		Header: []string{"items/region", "nodes", "encoding", "rows", "bytes", "bytes/node"},
	}
	for _, size := range sizes {
		doc := CatalogDoc(size)
		nodes := doc.Size()
		for _, cfg := range EncodingsWithText() {
			s, _, err := NewStore(cfg, doc)
			if err != nil {
				return t, err
			}
			st := s.Storage()
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(size), fmt.Sprint(nodes), cfg.Name,
				fmt.Sprint(st.Rows), fmt.Sprint(st.HeapBytes),
				fmt.Sprintf("%.1f", float64(st.HeapBytes)/float64(nodes)),
			})
		}
	}
	return t, nil
}

// RunE2 measures bulk-load (shred) time per encoding across sizes.
func RunE2(sizes []int, reps int) (Table, error) {
	t := Table{
		Title:  "E2: bulk load (shred) time",
		Header: []string{"items/region", "nodes", "encoding", "ms/load", "us/node"},
	}
	for _, size := range sizes {
		doc := CatalogDoc(size)
		xml := doc.String()
		nodes := doc.Size()
		for _, cfg := range Encodings() {
			d, err := timeOp(reps, func() error {
				s, err := ordxml.Open(cfg.Opts)
				if err != nil {
					return err
				}
				_, err = s.LoadString("d", xml)
				return err
			})
			if err != nil {
				return t, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(size), fmt.Sprint(nodes), cfg.Name,
				fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1e6),
				fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1e3/float64(nodes)),
			})
		}
	}
	return t, nil
}

// RunE3 runs the ordered query suite per encoding, reporting wall time and
// logical work (index probes + rows scanned).
func RunE3(itemsPerRegion, reps int) (Table, error) {
	t := Table{
		Title: "E3: ordered query suite",
		Note: fmt.Sprintf("catalog with %d items/region; work = index probes + rows scanned per query",
			itemsPerRegion),
		Header: []string{"query", "feature", "encoding", "results", "us/query", "work"},
	}
	doc := CatalogDoc(itemsPerRegion)
	type env struct {
		cfg Config
		s   *ordxml.Store
		id  ordxml.DocID
	}
	var envs []env
	for _, cfg := range Encodings() {
		s, id, err := NewStore(cfg, doc)
		if err != nil {
			return t, err
		}
		envs = append(envs, env{cfg, s, id})
	}
	for _, q := range QuerySuite(itemsPerRegion) {
		for _, e := range envs {
			before := Examined(e.s)
			res, err := e.s.Query(e.id, q.XPath)
			if err != nil {
				return t, fmt.Errorf("%s on %s: %w", q.ID, e.cfg.Name, err)
			}
			perOp := Examined(e.s) - before
			d, err := timeOp(reps, func() error {
				_, err := e.s.Query(e.id, q.XPath)
				return err
			})
			if err != nil {
				return t, err
			}
			t.Rows = append(t.Rows, []string{
				q.ID, q.Feature, e.cfg.Name,
				fmt.Sprint(len(res)), us(d), fmt.Sprint(perOp),
			})
		}
	}
	return t, nil
}

// insertPoint locates the target/position pair for a named insert location
// in the namerica region.
func insertPoint(s *ordxml.Store, id ordxml.DocID, where string) (ordxml.NodeID, ordxml.Position, error) {
	items, err := s.Query(id, "/site/regions/namerica/item")
	if err != nil {
		return 0, 0, err
	}
	if len(items) == 0 {
		return 0, 0, fmt.Errorf("no items")
	}
	switch where {
	case "begin":
		return items[0].ID, ordxml.Before, nil
	case "middle":
		return items[len(items)/2].ID, ordxml.Before, nil
	case "end":
		return items[len(items)-1].ID, ordxml.After, nil
	default:
		return 0, 0, fmt.Errorf("bad position %q", where)
	}
}

const insertFragment = `<item id="new"><name>fresh gadget</name><price>1.00</price><quantity>1</quantity><description>new</description></item>`

// RunE4 measures a single subtree insert at the beginning, middle and end of
// a region, per dense encoding (the paper's update-by-position figure).
func RunE4(itemsPerRegion int) (Table, error) {
	t := Table{
		Title:  "E4: insert cost by document position (dense encodings)",
		Note:   fmt.Sprintf("catalog with %d items/region; one %d-node subtree insert", itemsPerRegion, fragSize()),
		Header: []string{"position", "encoding", "us/insert", "rows renumbered"},
	}
	for _, where := range []string{"begin", "middle", "end"} {
		for _, cfg := range Encodings() {
			doc := CatalogDoc(itemsPerRegion)
			s, id, err := NewStore(cfg, doc)
			if err != nil {
				return t, err
			}
			target, pos, err := insertPoint(s, id, where)
			if err != nil {
				return t, err
			}
			start := nowNano()
			rep, err := s.Insert(id, target, pos, insertFragment)
			if err != nil {
				return t, err
			}
			elapsed := nowNano() - start
			t.Rows = append(t.Rows, []string{
				where, cfg.Name,
				fmt.Sprintf("%.1f", float64(elapsed)/1e3),
				fmt.Sprint(rep.RowsRenumbered),
			})
		}
	}
	return t, nil
}

func fragSize() int {
	n, err := xmltree.ParseString(insertFragment)
	if err != nil {
		return 0
	}
	return n.Size()
}

// RunE5 measures insert-at-beginning cost as the document grows — the
// scaling behaviour that separates global from local/Dewey.
func RunE5(sizes []int) (Table, error) {
	t := Table{
		Title:  "E5: insert-at-beginning cost vs document size (dense)",
		Header: []string{"items/region", "nodes", "encoding", "us/insert", "rows renumbered"},
	}
	for _, size := range sizes {
		doc := CatalogDoc(size)
		nodes := doc.Size()
		for _, cfg := range Encodings() {
			s, id, err := NewStore(cfg, doc)
			if err != nil {
				return t, err
			}
			target, pos, err := insertPoint(s, id, "begin")
			if err != nil {
				return t, err
			}
			start := nowNano()
			rep, err := s.Insert(id, target, pos, insertFragment)
			if err != nil {
				return t, err
			}
			elapsed := nowNano() - start
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(size), fmt.Sprint(nodes), cfg.Name,
				fmt.Sprintf("%.1f", float64(elapsed)/1e3),
				fmt.Sprint(rep.RowsRenumbered),
			})
		}
	}
	return t, nil
}

// RunE6 measures gap amortization: a burst of inserts at one point, by gap
// size, reporting how often renumbering fires and the total renumbered rows.
func RunE6(itemsPerRegion, inserts int, gaps []uint32) (Table, error) {
	t := Table{
		Title:  "E6: gap-based order amortization",
		Note:   fmt.Sprintf("%d repeated inserts before the same item", inserts),
		Header: []string{"encoding", "gap", "renumber events", "rows renumbered", "us/insert"},
	}
	for _, enc := range []ordxml.Encoding{ordxml.Global, ordxml.Local, ordxml.Dewey} {
		for _, cfg := range GapConfigs(enc, gaps) {
			doc := CatalogDoc(itemsPerRegion)
			s, id, err := NewStore(cfg, doc)
			if err != nil {
				return t, err
			}
			target, pos, err := insertPoint(s, id, "middle")
			if err != nil {
				return t, err
			}
			var events, renumbered int64
			start := nowNano()
			for i := 0; i < inserts; i++ {
				rep, err := s.Insert(id, target, pos, "<note>x</note>")
				if err != nil {
					return t, err
				}
				if rep.RowsRenumbered > 0 {
					events++
					renumbered += rep.RowsRenumbered
				}
			}
			elapsed := nowNano() - start
			t.Rows = append(t.Rows, []string{
				enc.String(), fmt.Sprint(cfg.Opts.Gap),
				fmt.Sprint(events), fmt.Sprint(renumbered),
				fmt.Sprintf("%.1f", float64(elapsed)/1e3/float64(inserts)),
			})
		}
	}
	return t, nil
}

// RunE7 measures document and subtree reconstruction per encoding, and the
// string values of the items of one region, read set-at-a-time. Beside the
// time it reports the SQL statements one extraction runs.
func RunE7(itemsPerRegion, reps int) (Table, error) {
	t := Table{
		Title:  "E7: reconstruction (publish)",
		Header: []string{"scope", "encoding", "nodes", "ms/publish", "stmts/extraction"},
	}
	doc := CatalogDoc(itemsPerRegion)
	for _, cfg := range Encodings() {
		s, id, err := NewStore(cfg, doc)
		if err != nil {
			return t, err
		}
		hits, err := s.Query(id, "/site/regions/namerica")
		if err != nil {
			return t, fmt.Errorf("region lookup: %w", err)
		}
		if len(hits) != 1 {
			return t, fmt.Errorf("region lookup: got %d hits, want 1", len(hits))
		}
		regionID := hits[0].ID
		sub, err := s.Serialize(id, regionID)
		if err != nil {
			return t, err
		}
		scopes := []struct {
			name  string
			nodes int
			op    func() error
		}{
			{"document", doc.Size(), func() error {
				_, err := s.SerializeDocument(id)
				return err
			}},
			{"region subtree", mustSize(sub), func() error {
				_, err := s.Serialize(id, regionID)
				return err
			}},
			{"region item values", mustSize(sub) - 1, func() error {
				_, err := s.QueryValues(id, "/site/regions/namerica/item")
				return err
			}},
		}
		for _, sc := range scopes {
			before := s.Metrics().Counters["sqldb.queries"]
			if err := sc.op(); err != nil {
				return t, err
			}
			stmts := s.Metrics().Counters["sqldb.queries"] - before
			d, err := timeOp(reps, sc.op)
			if err != nil {
				return t, err
			}
			t.Rows = append(t.Rows, []string{
				sc.name, cfg.Name, fmt.Sprint(sc.nodes),
				fmt.Sprintf("%.2f", float64(d.Nanoseconds())/1e6), fmt.Sprint(stmts),
			})
		}
	}
	return t, nil
}

func mustSize(xml string) int {
	n, err := xmltree.ParseString(xml)
	if err != nil {
		return 0
	}
	return n.Size()
}

// RunE8 compares binary vs string Dewey keys: storage and two query shapes.
func RunE8(itemsPerRegion, reps int) (Table, error) {
	t := Table{
		Title:  "E8: Dewey key codec ablation (binary vs padded string)",
		Header: []string{"codec", "bytes", "Q2 us", "Q6 us"},
	}
	doc := CatalogDoc(itemsPerRegion)
	qs := QuerySuite(itemsPerRegion)
	q2, q6 := qs[1], qs[5]
	for _, cfg := range []Config{
		{Name: "binary", Opts: ordxml.Options{Encoding: ordxml.Dewey}},
		{Name: "string", Opts: ordxml.Options{Encoding: ordxml.Dewey, DeweyAsText: true}},
	} {
		s, id, err := NewStore(cfg, doc)
		if err != nil {
			return t, err
		}
		d2, err := timeOp(reps, func() error {
			_, err := s.Query(id, q2.XPath)
			return err
		})
		if err != nil {
			return t, err
		}
		d6, err := timeOp(reps, func() error {
			_, err := s.Query(id, q6.XPath)
			return err
		})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			cfg.Name, fmt.Sprint(s.Storage().HeapBytes), us(d2), us(d6),
		})
	}
	return t, nil
}

// RunE9 measures query-time scaling with document size for three query
// shapes: a selective path (Q1), a root-anchored descendant sweep (Q6), and
// a mid-path descendant (Q9) — the shape where the encodings diverge.
func RunE9(sizes []int, reps int) (Table, error) {
	t := Table{
		Title:  "E9: query scaling with document size",
		Header: []string{"query", "items/region", "nodes", "encoding", "us/query", "work"},
	}
	for _, size := range sizes {
		doc := CatalogDoc(size)
		nodes := doc.Size()
		qs := QuerySuite(size)
		for _, q := range []QuerySpec{qs[0], qs[5], qs[8]} {
			for _, cfg := range Encodings() {
				s, id, err := NewStore(cfg, doc)
				if err != nil {
					return t, err
				}
				before := Examined(s)
				if _, err := s.Query(id, q.XPath); err != nil {
					return t, err
				}
				perOp := Examined(s) - before
				d, err := timeOp(reps, func() error {
					_, err := s.Query(id, q.XPath)
					return err
				})
				if err != nil {
					return t, err
				}
				t.Rows = append(t.Rows, []string{
					q.ID, fmt.Sprint(size), fmt.Sprint(nodes), cfg.Name, us(d), fmt.Sprint(perOp),
				})
			}
		}
	}
	return t, nil
}
