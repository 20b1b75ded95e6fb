// Benchmarks reproducing the paper's tables and figures (experiments E1–E9;
// see DESIGN.md §6 and EXPERIMENTS.md). Each benchmark mirrors one
// cmd/xmlbench experiment as a testing.B target; custom metrics report rows
// renumbered and bytes alongside wall time. The exact work counts per query
// and update (statements, rows examined, index writes) are the work ledger's
// (TestWorkLedger).
package ordxml_test

import (
	"fmt"
	"testing"

	"ordxml"
	"ordxml/internal/bench"
)

const benchItems = 100 // items per region for query/update benchmarks

// BenchmarkE1Storage reports bytes per node for each encoding (storage-cost
// table). Time is load time; the metric of interest is bytes_per_node.
func BenchmarkE1Storage(b *testing.B) {
	doc := bench.CatalogDoc(benchItems)
	xml := doc.String()
	nodes := float64(doc.Size())
	for _, cfg := range bench.EncodingsWithText() {
		b.Run(cfg.Name, func(b *testing.B) {
			var bytes int
			for i := 0; i < b.N; i++ {
				s, err := ordxml.Open(cfg.Opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.LoadString("d", xml); err != nil {
					b.Fatal(err)
				}
				bytes = s.Storage().HeapBytes
			}
			b.ReportMetric(float64(bytes)/nodes, "bytes/node")
		})
	}
}

// BenchmarkE2Load measures shred+load throughput per encoding and size.
func BenchmarkE2Load(b *testing.B) {
	for _, size := range []int{50, 200} {
		doc := bench.CatalogDoc(size)
		xml := doc.String()
		nodes := float64(doc.Size())
		for _, cfg := range bench.Encodings() {
			b.Run(fmt.Sprintf("%s/items=%d", cfg.Name, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s, err := ordxml.Open(cfg.Opts)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := s.LoadString("d", xml); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nodes, "ns/node")
			})
		}
	}
}

// BenchmarkE3Queries runs the ordered query suite per encoding.
func BenchmarkE3Queries(b *testing.B) {
	doc := bench.CatalogDoc(benchItems)
	for _, cfg := range bench.Encodings() {
		s, id, err := bench.NewStore(cfg, doc)
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range bench.QuerySuite(benchItems) {
			b.Run(q.ID+"/"+cfg.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := s.Query(id, q.XPath); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchInsert measures repeated single-fragment inserts at a named position,
// rebuilding the store whenever the document has grown 50% so position
// semantics stay comparable, and reports the rows each insert renumbered.
func benchInsert(b *testing.B, cfg bench.Config, where string, items int) {
	doc := bench.CatalogDoc(items)
	baseNodes := doc.Size()
	var s *ordxml.Store
	var id ordxml.DocID
	var inserted int
	rebuild := func() {
		var err error
		s, id, err = bench.NewStore(cfg, doc)
		if err != nil {
			b.Fatal(err)
		}
		inserted = 0
	}
	rebuild()
	var renumbered int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if inserted*10 > baseNodes/2 {
			b.StopTimer()
			rebuild()
			b.StartTimer()
		}
		target, pos, err := insertTarget(s, id, where)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := s.Insert(id, target, pos, "<note><text>x</text></note>")
		if err != nil {
			b.Fatal(err)
		}
		renumbered += rep.RowsRenumbered
		inserted++
	}
	b.ReportMetric(float64(renumbered)/float64(b.N), "renumbered/op")
}

func insertTarget(s *ordxml.Store, id ordxml.DocID, where string) (ordxml.NodeID, ordxml.Position, error) {
	items, err := s.Query(id, "/site/regions/namerica/item")
	if err != nil || len(items) == 0 {
		return 0, 0, fmt.Errorf("items: %v, %v", len(items), err)
	}
	switch where {
	case "begin":
		return items[0].ID, ordxml.Before, nil
	case "middle":
		return items[len(items)/2].ID, ordxml.Before, nil
	default:
		return items[len(items)-1].ID, ordxml.After, nil
	}
}

// BenchmarkE4InsertPosition measures insert cost at begin/middle/end per
// dense encoding (update-by-position figure).
func BenchmarkE4InsertPosition(b *testing.B) {
	for _, where := range []string{"begin", "middle", "end"} {
		for _, cfg := range bench.Encodings() {
			b.Run(where+"/"+cfg.Name, func(b *testing.B) {
				benchInsert(b, cfg, where, benchItems)
			})
		}
	}
}

// BenchmarkE5InsertScale measures insert-at-beginning cost as documents grow
// (update-vs-size figure).
func BenchmarkE5InsertScale(b *testing.B) {
	for _, size := range []int{50, 200, 400} {
		for _, cfg := range bench.Encodings() {
			b.Run(fmt.Sprintf("items=%d/%s", size, cfg.Name), func(b *testing.B) {
				benchInsert(b, cfg, "begin", size)
			})
		}
	}
}

// BenchmarkE6Gaps measures the gap ablation: repeated point inserts under
// growing gap sizes (sparse-order discussion).
func BenchmarkE6Gaps(b *testing.B) {
	for _, enc := range []ordxml.Encoding{ordxml.Global, ordxml.Local, ordxml.Dewey} {
		for _, cfg := range bench.GapConfigs(enc, []uint32{1, 16, 64}) {
			b.Run(cfg.Name, func(b *testing.B) {
				benchInsert(b, cfg, "middle", benchItems)
			})
		}
	}
}

// BenchmarkE7Publish measures reconstruction of the whole document and of a
// region subtree per encoding (reconstruction figure), and the string values
// of the region's items.
func BenchmarkE7Publish(b *testing.B) {
	doc := bench.CatalogDoc(benchItems)
	for _, cfg := range bench.Encodings() {
		s, id, err := bench.NewStore(cfg, doc)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("document/"+cfg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.SerializeDocument(id); err != nil {
					b.Fatal(err)
				}
			}
		})
		hits, err := s.Query(id, "/site/regions/namerica")
		if err != nil || len(hits) != 1 {
			b.Fatal(err)
		}
		b.Run("subtree/"+cfg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Serialize(id, hits[0].ID); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("values/"+cfg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.QueryValues(id, "/site/regions/namerica/item"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8DeweyCodec compares the binary and padded-string Dewey codecs
// on the descendant query (codec ablation).
func BenchmarkE8DeweyCodec(b *testing.B) {
	doc := bench.CatalogDoc(benchItems)
	for _, cfg := range []bench.Config{
		{Name: "binary", Opts: ordxml.Options{Encoding: ordxml.Dewey}},
		{Name: "string", Opts: ordxml.Options{Encoding: ordxml.Dewey, DeweyAsText: true}},
	} {
		s, id, err := bench.NewStore(cfg, doc)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Query(id, "//keyword"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.Storage().HeapBytes), "heap_bytes")
		})
	}
}

// BenchmarkE9QueryScaling measures query time as documents grow, for the
// three query shapes of experiment E9.
func BenchmarkE9QueryScaling(b *testing.B) {
	for _, size := range []int{50, 200} {
		doc := bench.CatalogDoc(size)
		qs := bench.QuerySuite(size)
		for _, q := range []bench.QuerySpec{qs[0], qs[5], qs[8]} {
			for _, cfg := range bench.Encodings() {
				s, id, err := bench.NewStore(cfg, doc)
				if err != nil {
					b.Fatal(err)
				}
				b.Run(fmt.Sprintf("%s/items=%d/%s", q.ID, size, cfg.Name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := s.Query(id, q.XPath); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
