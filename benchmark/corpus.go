package benchmark

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"ordxml"
	"ordxml/internal/xmlgen"
	"ordxml/internal/xmltree"
)

// encodings are the three order encodings every workload runs, interleaved.
var encodings = [3]struct {
	name string
	enc  ordxml.Encoding
}{{"global", ordxml.Global}, {"local", ordxml.Local}, {"dewey", ordxml.Dewey}}

// defaultSeed is the seed the corpus pins below were taken with.
const defaultSeed = 42

// corpus is one generated document: the catalog of xmlgen at 3 regions,
// 2 keywords per item and 8 description words, sized by items per region.
// The seed changes the text values only, never the shape, so the node count
// is a function of items.
type corpus struct {
	items int
	tree  *xmltree.Node
	xml   string
	nodes int
	sha   string
}

// pins holds, per items-per-region size the workloads use, the node count
// (any seed) and the SHA-256 of the XML at defaultSeed. A mismatch means
// xmlgen changed, and numbers are no longer comparable with earlier runs.
var pins = map[int]struct {
	nodes int
	sha   string
}{
	150: {6330, "9d09cf5f4d3730eeaea3ea7b849052cd79225180e3c3b0d8f9ee594c9f623205"},  // update_durable
	200: {8430, "28ff099539a691c505a939f729a9c16c79deb7b4b25b70415209c9f340b0572e"},  // query_paged, side passes, probes
	600: {25230, "ca86e5a9f97b8ff3a320bf8a0c0667a8d8a4e13b211dacb0bcb2ff8e31af5618"}, // load_publish
	800: {33630, "a3dcefa40bf891aff368db4917c3d06d0e2aa391048a16bb0234b59916d603f2"}, // query_mem
}

func generate(items int, seed int64) (*corpus, error) {
	tree := xmlgen.Catalog(xmlgen.CatalogConfig{
		Regions: 3, ItemsPerRegion: items, KeywordsPerItem: 2, DescriptionWords: 8, Seed: seed,
	})
	xml := tree.String()
	sum := sha256.Sum256([]byte(xml))
	c := &corpus{items: items, tree: tree, xml: xml, nodes: tree.Size(), sha: hex.EncodeToString(sum[:])}
	if pin, ok := pins[items]; ok {
		if c.nodes != pin.nodes {
			return nil, fmt.Errorf("corpus at %d items/region has %d nodes, pinned %d", items, c.nodes, pin.nodes)
		}
		if seed == defaultSeed && c.sha != pin.sha {
			return nil, fmt.Errorf("corpus at %d items/region, seed %d has SHA-256 %s, pinned %s", items, seed, c.sha, pin.sha)
		}
	}
	return c, nil
}
