package ordxml_test

import (
	"testing"

	"ordxml/internal/bench"
)

// TestQuerySuitePlanCacheWarm runs the E3 query suite twice over one store
// per encoding: the second pass must execute entirely from the plan cache —
// hits only, no new parse or plan work — and return identical result counts.
func TestQuerySuitePlanCacheWarm(t *testing.T) {
	const items = 20
	doc := bench.CatalogDoc(items)
	suite := bench.QuerySuite(items)
	for _, cfg := range bench.Encodings() {
		t.Run(cfg.Name, func(t *testing.T) {
			s, id, err := bench.NewStore(cfg, doc)
			if err != nil {
				t.Fatal(err)
			}
			first := make(map[string]int)
			for _, q := range suite {
				nodes, err := s.Query(id, q.XPath)
				if err != nil {
					t.Fatalf("%s: %v", q.ID, err)
				}
				first[q.ID] = len(nodes)
			}
			warm := s.Metrics().Counters

			for _, q := range suite {
				nodes, err := s.Query(id, q.XPath)
				if err != nil {
					t.Fatalf("%s second pass: %v", q.ID, err)
				}
				if len(nodes) != first[q.ID] {
					t.Fatalf("%s: second pass returned %d nodes, first %d", q.ID, len(nodes), first[q.ID])
				}
			}
			second := s.Metrics().Counters

			const hits, misses = "sqldb.plancache.hits", "sqldb.plancache.misses"
			if second[misses] != warm[misses] {
				t.Fatalf("second pass planned %d statements, want 0", second[misses]-warm[misses])
			}
			if second[hits] <= warm[hits] {
				t.Fatalf("second pass recorded no cache hits (%d -> %d)", warm[hits], second[hits])
			}
		})
	}
}
