package benchmark

import (
	"errors"

	"ordxml"
)

// loadPublishWorkload is the bulk path: every cycle opens a memory store,
// loads the corpus from its XML text, serialises the document back and
// compares it byte for byte with the input. The store is then dropped on the
// floor (Store.Drop costs more than the load and is measured as a probe).
type loadPublishWorkload struct {
	corpus *corpus
	cur    [3]*ordxml.Store // the store of the cycle in flight, for metrics
	stored [3]float64
}

func (w *loadPublishWorkload) setUp(env *env, t *timer) error {
	return t.stage(func() (err error) { w.corpus, err = generate(env.items, env.seed); return })
}

func (w *loadPublishWorkload) cycle(e int, c *cycle) error {
	var (
		s   *ordxml.Store
		doc ordxml.DocID
	)
	err := c.op("load", func() (err error) {
		if s, err = ordxml.Open(ordxml.Options{Encoding: encodings[e].enc}); err != nil {
			return err
		}
		w.cur[e] = s
		doc, err = s.LoadString("bench", w.corpus.xml)
		return err
	})
	if err != nil {
		return err
	}
	err = c.op("serialize", func() error {
		out, err := s.SerializeDocument(doc)
		if err != nil {
			return err
		}
		if out != w.corpus.xml {
			return errors.New("serialised document differs from the input")
		}
		return nil
	})
	w.stored[e] = float64(s.Storage().HeapBytes) / float64(w.corpus.nodes)
	w.cur[e] = nil
	return err
}

// metrics reads the store of the cycle in flight. Between cycles there is
// none, so a traced cycle's first delta is the new store's counters from zero.
func (w *loadPublishWorkload) metrics(e int) ordxml.Metrics {
	if w.cur[e] == nil {
		return ordxml.Metrics{}
	}
	return w.cur[e].Metrics()
}

func (w *loadPublishWorkload) finish(*clock) ([3]float64, map[string]float64, error) {
	return w.stored, nil, nil
}

func (w *loadPublishWorkload) tearDown() {}
