package ordxml

import "testing"

// TestQuerySuitePlanCacheWarm runs the E3 query suite twice over one store
// per encoding: the second pass must execute entirely from the plan cache —
// hits only, no new parse or plan work — and return identical result counts.
func TestQuerySuitePlanCacheWarm(t *testing.T) {
	tree := catalogDoc(20)
	suite := ledgerCases(tree, 20)[:9]
	for _, enc := range ledgerEncodings[:3] {
		t.Run(enc, func(t *testing.T) {
			s, id := loadedStore(t, ledgerOptions(enc), "mem", tree.String())
			first := make(map[string]int)
			for _, q := range suite {
				nodes, err := s.Query(id, q.xpath)
				if err != nil {
					t.Fatalf("%s: %v", q.name, err)
				}
				first[q.name] = len(nodes)
			}
			warm := s.Metrics()
			for _, q := range suite {
				nodes, err := s.Query(id, q.xpath)
				if err != nil {
					t.Fatalf("%s second pass: %v", q.name, err)
				}
				if len(nodes) != first[q.name] {
					t.Fatalf("%s: second pass returned %d nodes, first %d", q.name, len(nodes), first[q.name])
				}
			}
			second := s.Metrics()
			if n := second.Delta(warm, "sqldb.plancache.misses"); n != 0 {
				t.Fatalf("second pass planned %d statements, want 0", n)
			}
			if second.Delta(warm, "sqldb.plancache.hits") == 0 {
				t.Fatal("second pass recorded no cache hits")
			}
		})
	}
}
