package benchmark

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// overheadLimit is the most trace.overhead_pct may be.
const overheadLimit = 5.0

// storedBytesLimit is the spread stored bytes may show. Memory stores repeat
// exactly; a durable store's directory differs by a few bytes in several
// megabytes from run to run, because the checkpoint manifest lists the pool's
// free page ids and GC finalizers return those in no fixed order.
const storedBytesLimit = 1e-5

// timeLimit is the (max-min)/median a calibrated time may show across the
// self-check's runs of one binary on one seed.
const timeLimit = 0.06

// selfCheckLimit is the spread a metric may show: a time timeLimit, stored
// bytes next to nothing, the live heap half its bound.
func selfCheckLimit(d Metric) float64 {
	switch d.Unit {
	case "ms", "s":
		return timeLimit
	case "B/node":
		return storedBytesLimit
	default:
		return d.Bound / 2
	}
}

// exactLayer names the per-layer counts that must repeat bit for bit.
func exactLayer(name string) bool {
	for _, p := range []string{"exec.statements_per_cycle.", "update.rows_renumbered_per_cycle.", "wal.bytes_per_cycle", "wal.fsyncs_per_cycle"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// runChild runs one benchmark run in a fresh process of exe and decodes the
// last line of its output.
func runChild(exe string, cfg Config, trace int) (*Result, error) {
	cmd := exec.Command(exe,
		"-workload", cfg.Workload, "-seed", strconv.FormatInt(cfg.Seed, 10),
		"-seconds", strconv.Itoa(cfg.Seconds), "-dir", cfg.Scratch, "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", cfg.Workload, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res Result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s (trace %d): last line of output: %w", cfg.Workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("%s (trace %d): %d of %d operations failed", cfg.Workload, trace, res.Failed, res.Attempted)
	}
	return &res, nil
}

// SelfCheck runs every workload five times untraced and twice traced, each
// in a fresh process of exe on cfg.Seed, writes the values and their spread
// to w as Markdown, and returns an error naming every metric over its limit.
func SelfCheck(w io.Writer, exe string, cfg Config) error {
	const runs, tracedRuns = 5, 2
	var over []string
	fmt.Fprintf(w, "# ordbench self-check\n\n")
	fmt.Fprintf(w, "%d untraced and %d traced runs per workload, one process each, same binary, seed %d, `-seconds %d`.\n", runs, tracedRuns, cfg.Seed, cfg.Seconds)
	fmt.Fprintf(w, "Spread is (max-min)/median. Limits: a calibrated time %.0f %%, stored bytes %.3f %%, live heap half its bound;\n", 100*timeLimit, 100*storedBytesLimit)
	fmt.Fprintf(w, "traced runs: the listed counts identical, `trace.overhead_pct` at most %.0f.\n", overheadLimit)
	for _, sp := range specs {
		cfg.Workload = sp.name
		fmt.Fprintf(w, "\n## %s\n\n", sp.name)

		var results []*Result
		for i := 0; i < runs; i++ {
			res, err := runChild(exe, cfg, 0)
			if err != nil {
				return err
			}
			results = append(results, res)
		}
		fmt.Fprintf(w, "| end-to-end metric | unit |%s spread | limit | |\n", strings.Repeat(" run |", runs))
		fmt.Fprintf(w, "|---|---|%s---|---|---|\n", strings.Repeat("---|", runs))
		for _, d := range EndToEnd() {
			xs := valuesOf(results, d.Name)
			spread, limit := rangeOverMedian(xs), selfCheckLimit(d)
			verdict := "ok"
			if spread > limit {
				verdict = "OVER"
				over = append(over, sp.name+"/"+d.Name)
			}
			fmt.Fprintf(w, "| `%s` | %s |%s %.4f %% | %.3f %% | %s |\n", d.Name, d.Unit, cells(xs), 100*spread, 100*limit, verdict)
		}
		fmt.Fprintf(w, "\nattempted %d operations per run, failed 0.\n", results[0].Attempted)

		results = results[:0]
		for i := 0; i < tracedRuns; i++ {
			res, err := runChild(exe, cfg, 1)
			if err != nil {
				return err
			}
			results = append(results, res)
		}
		if len(results) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n| per-layer metric | unit |%s |\n", strings.Repeat(" traced run |", tracedRuns))
		fmt.Fprintf(w, "|---|---|%s---|\n", strings.Repeat("---|", tracedRuns))
		for _, d := range PerLayer() {
			xs := valuesOf(results, d.Name)
			verdict := ""
			switch {
			case exactLayer(d.Name):
				verdict = "identical"
				if !allEqual(xs) {
					verdict = "DIFFER"
					over = append(over, sp.name+"/"+d.Name)
				}
			case d.Name == "trace.overhead_pct":
				verdict = "ok"
				if median(xs) > overheadLimit {
					verdict = "OVER"
					over = append(over, sp.name+"/"+d.Name)
				}
			default:
				continue
			}
			fmt.Fprintf(w, "| `%s` | %s |%s %s |\n", d.Name, d.Unit, cells(xs), verdict)
		}
	}
	if len(over) > 0 {
		fmt.Fprintf(w, "\n**FAILED**: over the limit: %s\n", strings.Join(over, ", "))
		return fmt.Errorf("self-check: over the limit: %s", strings.Join(over, ", "))
	}
	fmt.Fprintf(w, "\nAll metrics within their limits.\n")
	return nil
}

func valuesOf(results []*Result, name string) []float64 {
	xs := make([]float64, len(results))
	for i, r := range results {
		xs[i] = r.Metrics[name].Value
	}
	return xs
}

func allEqual(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

func cells(xs []float64) string {
	var sb strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&sb, " %.7g |", x)
	}
	return sb.String()
}
