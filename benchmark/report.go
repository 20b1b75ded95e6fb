package benchmark

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
)

// Value is one reported metric value.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run reports; its JSON form is the last line of output.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// report builds a Result holding exactly the metrics of defs, in values.
func report(defs []Metric, values map[string]float64, attempted int) (*Result, error) {
	res := &Result{Correct: true, Attempted: attempted, Metrics: map[string]Value{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = Value{v, d.Unit}
	}
	return res, nil
}

// Print writes every metric by name with its unit, one per line in the order
// of defs, then the operation counts, then the JSON form on the last line.
func (res *Result) Print(w io.Writer, defs []Metric) error {
	for _, d := range defs {
		fmt.Fprintf(w, "%-44s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(w, "operations attempted %d, failed %d\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// Run executes one untraced run and reports the end-to-end metrics.
func Run(cfg Config) (*Result, error) {
	cfg.Trace = false
	r, err := run(cfg, max(setupReps, setupReps*cfg.Seconds/nominalSeconds), false)
	if err != nil {
		return nil, err
	}
	return report(EndToEnd(), r.endToEnd(), r.attempted)
}

// Trace executes one traced run and reports the per-layer metrics: the
// workload's own cycles traced on odd rounds, then, so that every metric is
// measured in every run, a short fully traced side pass of each other kind of
// workload on the small corpus for the call-level metrics this workload's
// cycles cannot yield, then the probes. The spans of the workload's own
// cycles are written as JSON.
func Trace(cfg Config) (*Result, error) {
	cfg.Trace = true
	r, err := run(cfg, 1, false)
	if err != nil {
		return nil, err
	}
	values := r.genericLayer()
	for k, v := range r.groupLayer() {
		values[k] = v
	}
	attempted := r.attempted
	for _, g := range groups {
		if g == r.spec.group {
			continue
		}
		side, err := run(Config{Workload: g.side, Seed: cfg.Seed, Rounds: sideRounds, Items: sideItems, Trace: true, Scratch: cfg.Scratch}, 1, true)
		if err != nil {
			return nil, fmt.Errorf("side pass %s: %w", g.side, err)
		}
		for k, v := range side.groupLayer() {
			values[k] = v
		}
		attempted += side.attempted
	}
	if err := runProbes(cfg, traceProbeReps, values); err != nil {
		return nil, err
	}
	if err := r.rec.writeJSON(filepath.Join(cfg.Scratch, "spans-"+cfg.Workload+".json")); err != nil {
		return nil, err
	}
	return report(PerLayer(), values, attempted)
}

const (
	// sideRounds covers one checkpoint of update_durable.
	sideRounds = checkpointEvery
	// sideItems sizes the corpus of side passes and probes: 8,430 nodes.
	sideItems = 200
	// traceProbeReps keeps the probes of a traced run to a few seconds;
	// Probes on its own repeats each probe probeReps times.
	traceProbeReps = 5
	probeReps      = 15
)

// Probes runs the layer probes alone, probeReps repetitions each, and
// returns their values with the probes' metric definitions.
func Probes(cfg Config) (map[string]float64, []Metric, error) {
	values := map[string]float64{}
	if err := runProbes(cfg, probeReps, values); err != nil {
		return nil, nil, err
	}
	var defs []Metric
	for _, d := range PerLayer() {
		if _, ok := values[d.Name]; ok {
			defs = append(defs, d)
		}
	}
	return values, defs, nil
}
