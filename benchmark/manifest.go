package benchmark

import (
	"encoding/json"
	"fmt"
)

// Manifest is BENCHMARK.json: the benchmark as the driver sees it. The file
// at the repository root is the output of `ordbench manifest`;
// manifest_test.go fails when the two differ.
type Manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []ManifestWorkload `json:"workloads"`
	EndToEnd   []Metric           `json:"end_to_end"`
	PerLayer   []Metric           `json:"per_layer"`
}

type ManifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// BuildManifest derives the manifest from the workload specs and the metric
// catalogue, so names are written down once.
func BuildManifest() Manifest {
	m := Manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: nominalSeconds,
		EndToEnd:   EndToEnd(),
		PerLayer:   PerLayer(),
	}
	for _, sp := range specs {
		pin := pins[sp.items]
		m.Workloads = append(m.Workloads, ManifestWorkload{
			Name: sp.name,
			Why:  fmt.Sprintf("%s [%d nodes, sha256 %s at seed %d]", sp.why, pin.nodes, pin.sha[:12], defaultSeed),
		})
	}
	return m
}

// JSON renders the manifest the way BENCHMARK.json stores it.
func (m Manifest) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	return append(b, '\n'), err
}

// Names lists every name of the manifest, one per line of `ordbench -list`:
// workloads, end-to-end metrics, per-layer metrics.
func (m Manifest) Names() []string {
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	for _, d := range m.EndToEnd {
		names = append(names, d.Name)
	}
	for _, d := range m.PerLayer {
		names = append(names, d.Name)
	}
	return names
}
