package benchmark

import (
	"fmt"

	"ordxml"
	"ordxml/internal/core/update"
)

const (
	// updateFrames exceeds the working set, so the pool never evicts. (With
	// 800 to 1024 frames on this document the checkpoint intermittently fails
	// with "bufpool: dirty frame N has no payload"; see README, findings.)
	updateFrames = 4096
	// checkpointEvery is the cycle period of Store.Checkpoint.
	checkpointEvery = 5
	updateRegion    = "/site/regions/europe/item"
)

// updateFragment has the shape of a generated item (14 nodes), so inserting
// three and deleting three other items per cycle keeps the node count, and
// with it the rows each insert renumbers, exactly constant.
func updateFragment(round, k int) string {
	return fmt.Sprintf(`<item id="r%dk%d"><name>fresh item</name><price>1.00</price><quantity>5</quantity>`+
		`<description>inserted by the benchmark<keyword>rare</keyword><keyword>vintage</keyword></description></item>`, round, k)
}

// updateWorkload is the write side on durable paged stores: every cycle
// locates its targets with a query, inserts before the current first item,
// before the middle item and after the last item of one region, rewrites a
// text node, moves an item, and deletes three items other than the ones just
// inserted (deleting the same ones would reuse the freed gap and renumber
// nothing). Every checkpointEvery-th cycle ends with a checkpoint.
type updateWorkload struct {
	corpus *corpus
	stores [3]*store
	// renumbered is the rows each encoding renumbered in its first cycle;
	// every later cycle must match it.
	renumbered [3]int64
	cycles     [3]int
}

func (w *updateWorkload) setUp(env *env, t *timer) error {
	if err := t.stage(func() (err error) { w.corpus, err = generate(env.items, env.seed); return }); err != nil {
		return err
	}
	for e := range encodings {
		err := t.stage(func() (err error) {
			w.stores[e], err = openStore(env, e, updateFrames)
			return err
		})
		if err == nil {
			err = w.stores[e].load(t, w.corpus.xml)
		}
		if err != nil {
			return err
		}
	}
	for e := range encodings {
		if err := t.stage(func() error { return w.sameDocument(e, w.corpus.xml) }); err != nil {
			return err
		}
	}
	return nil
}

// sameDocument checks that encoding e serialises to want.
func (w *updateWorkload) sameDocument(e int, want string) error {
	st := w.stores[e]
	got, err := st.s.SerializeDocument(st.doc)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s serialises to a different document", encodings[e].name)
	}
	return nil
}

func (w *updateWorkload) cycle(e int, c *cycle) error {
	st := w.stores[e]
	s, doc := st.s, st.doc
	var (
		items []ordxml.Node
		text  ordxml.NodeID
	)
	err := c.op("locate", func() (err error) {
		if items, err = s.Query(doc, updateRegion); err != nil {
			return err
		}
		if len(items) != w.corpus.items {
			return fmt.Errorf("%d items, want %d", len(items), w.corpus.items)
		}
		texts, err := s.Query(doc, updateRegion+"[7]/name/text()")
		if err != nil {
			return err
		}
		if len(texts) != 1 {
			return fmt.Errorf("%d text nodes, want 1", len(texts))
		}
		text = texts[0].ID
		c.results += len(items) + 1
		return nil
	})
	if err != nil {
		return err
	}
	n := len(items)
	insert := func(k int, target ordxml.Node, pos update.Mode) func() (ordxml.UpdateReport, error) {
		return func() (ordxml.UpdateReport, error) {
			return s.Insert(doc, target.ID, pos, updateFragment(c.round, k))
		}
	}
	del := func(victim ordxml.Node) func() (ordxml.UpdateReport, error) {
		return func() (ordxml.UpdateReport, error) { return s.Delete(doc, victim.ID) }
	}
	mutations := []struct {
		name string
		fn   func() (ordxml.UpdateReport, error)
	}{
		{"ins_begin", insert(0, items[0], update.Before)},
		{"ins_mid", insert(1, items[n/2], update.Before)},
		{"ins_end", insert(2, items[n-1], update.After)},
		{"setvalue", func() (ordxml.UpdateReport, error) {
			return ordxml.UpdateReport{}, s.SetValue(doc, text, fmt.Sprintf("renamed in round %d", c.round))
		}},
		{"move", func() (ordxml.UpdateReport, error) {
			return s.Move(doc, items[3].ID, items[5].ID, update.After)
		}},
		{"delete", del(items[1])},
		{"delete", del(items[n/2+1])},
		{"delete", del(items[n-2])},
	}
	var renumbered int64
	for _, m := range mutations {
		err := c.op(m.name, func() error {
			rep, err := m.fn()
			renumbered += rep.RowsRenumbered
			return err
		})
		if err != nil {
			return err
		}
	}
	switch {
	case renumbered == 0:
		return fmt.Errorf("cycle on %s renumbered no rows", c.enc)
	case w.cycles[e] == 0:
		w.renumbered[e] = renumbered
	case renumbered != w.renumbered[e]:
		return fmt.Errorf("cycle on %s renumbered %d rows, first cycle %d", c.enc, renumbered, w.renumbered[e])
	}
	w.cycles[e]++
	if c.round >= 0 && c.round%checkpointEvery == checkpointEvery-1 {
		return withoutGC(func() error { return c.periodicOp("checkpoint", checkpointEvery, s.Checkpoint) })
	}
	return nil
}

func (w *updateWorkload) metrics(e int) ordxml.Metrics { return w.stores[e].s.Metrics() }

// finish checks that the three encodings still hold the same document and
// that every store passes its integrity check, measures each store's space,
// and checks that each reopens from that checkpoint to the same document.
func (w *updateWorkload) finish(clk *clock) (stored [3]float64, extra map[string]float64, err error) {
	want, err := w.stores[0].s.SerializeDocument(w.stores[0].doc)
	if err != nil {
		return stored, nil, err
	}
	var reopen []float64
	for e, st := range w.stores {
		if err := w.sameDocument(e, want); err != nil {
			return stored, nil, err
		}
		problems, err := st.s.CheckIntegrity()
		if err != nil {
			return stored, nil, err
		}
		if len(problems) > 0 {
			return stored, nil, fmt.Errorf("%s fails its integrity check: %v", encodings[e].name, problems)
		}
		// Before the reopen, not after it: a reopened store takes every page
		// the manifest does not list as free for a referenced one.
		b, err := st.storedBytes()
		if err != nil {
			return stored, nil, err
		}
		stored[e] = b / float64(w.corpus.nodes)
		if err := withoutGC(st.s.Close); err != nil {
			return stored, nil, err
		}
		t := timer{clk: clk}
		err = t.stage(func() (err error) {
			st.s, err = ordxml.OpenDurable(st.dir, ordxml.Options{Encoding: encodings[e].enc, BufferPoolFrames: updateFrames})
			return err
		})
		if err != nil {
			return stored, nil, err
		}
		t.sample()
		reopen = append(reopen, t.calibrated(t.wall))
		if err := w.sameDocument(e, want); err != nil {
			return stored, nil, fmt.Errorf("after reopen: %w", err)
		}
	}
	extra = map[string]float64{"ordxml.reopen_ms": mean(reopen)}
	for e, enc := range encodings {
		extra["update.rows_renumbered_per_cycle."+enc.name] = float64(w.renumbered[e])
	}
	return stored, extra, nil
}

func (w *updateWorkload) tearDown() {
	for _, st := range w.stores {
		st.discard()
	}
}
