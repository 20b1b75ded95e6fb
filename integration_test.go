package ordxml_test

import (
	"fmt"
	"sync"
	"testing"

	"ordxml"
	"ordxml/internal/xmlgen"
)

// Concurrency tests through the public API: readers against one store, and
// readers interleaved with a writer. Sequential sessions against the oracle
// are the model harness's (model_test.go).

// TestConcurrentReaders checks the documented concurrency contract: many
// goroutines querying one store while results stay consistent.
func TestConcurrentReaders(t *testing.T) {
	store, err := ordxml.Open(ordxml.Options{Encoding: ordxml.Dewey})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := store.LoadString("c", xmlgen.Catalog(xmlgen.DefaultCatalog()).String())
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := store.QueryValues(doc, "/site/regions/namerica/item/name")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				got, err := store.QueryValues(doc, "/site/regions/namerica/item/name")
				if err != nil {
					errs <- err
					return
				}
				if len(got) != len(baseline) || got[0] != baseline[0] {
					errs <- fmt.Errorf("goroutine %d: inconsistent result", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentMixed interleaves readers with a writer; the engine's
// statement-level locking must keep every observed state coherent.
func TestConcurrentMixed(t *testing.T) {
	store, err := ordxml.Open(ordxml.Options{Encoding: ordxml.Global, Gap: 16})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := store.LoadString("m", "<list><item>seed</item></list>")
	if err != nil {
		t.Fatal(err)
	}
	listID := int64(1)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, err := store.Insert(doc, listID, ordxml.LastChild,
				fmt.Sprintf("<item>w%d</item>", i)); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				vals, err := store.QueryValues(doc, "/list/item")
				if err != nil {
					errs <- err
					return
				}
				if len(vals) == 0 || vals[0] != "seed" {
					errs <- fmt.Errorf("reader saw incoherent state: %v", vals)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	vals, _ := store.QueryValues(doc, "/list/item")
	if len(vals) != 31 {
		t.Errorf("final item count = %d", len(vals))
	}
}
