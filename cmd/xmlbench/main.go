// Command xmlbench runs the experiment suite (E1–E9) that reproduces the
// paper's tables and figures, printing one result table per experiment.
//
// Usage:
//
//	xmlbench [-exp E3] [-items 200] [-quick] [-json]
//	xmlbench -concurrency 1,4,8 [-duration 2s] [-concurrency-out BENCH_concurrency.json]
//	xmlbench -shed 1,2,4,8,16 [-shed-active 2] [-duration 2s] [-shed-out BENCH_shed.json]
//
// Without -exp it runs every experiment. -quick shrinks workload sizes for a
// fast smoke run; EXPERIMENTS.md records full-size results. -json emits one
// machine-readable JSON object (schema_version, results) on stdout instead of
// the aligned text tables.
//
// Where query time goes per layer, what request tracing costs and how the
// buffer pool behaves are measured by the repo's benchmark, ordbench
// (benchmark/README.md), not here.
//
// -concurrency switches to the closed-loop concurrent-read benchmark: at
// each listed goroutine count, that many readers cycle the E3 query mix
// against a shared store for -duration, per encoding. The table goes to
// stdout and the machine-readable report (throughput, latency quantiles,
// speedup vs. the 1-goroutine baseline) is written to -concurrency-out.
//
// -shed switches to the load-shedding benchmark: the store's admission gate
// is fixed at -shed-active slots while the offered closed-loop client count
// sweeps the -shed list, per encoding. The report (admitted throughput, shed
// rate, admitted-request latency quantiles) demonstrates graceful
// degradation — past saturation the shed rate climbs while admitted p99
// stays bounded — and is written to -shed-out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ordxml/internal/bench"
)

// jsonSchemaVersion identifies the -json output shape; bump on breaking
// changes. The shape is documented in EXPERIMENTS.md.
const jsonSchemaVersion = 1

// jsonResult is the machine-readable form of one experiment's table: the
// header names the columns, each row holds the rendered cell values.
type jsonResult struct {
	Experiment string     `json:"experiment"`
	Reference  string     `json:"reference"`
	Title      string     `json:"title"`
	Note       string     `json:"note,omitempty"`
	Header     []string   `json:"header"`
	Rows       [][]string `json:"rows"`
}

// jsonOutput is the top-level -json document.
type jsonOutput struct {
	SchemaVersion int          `json:"schema_version"`
	Results       []jsonResult `json:"results"`
}

func main() {
	exp := flag.String("exp", "", "run one experiment (E1..E9); default all")
	items := flag.Int("items", 200, "catalog items per region for query/update experiments")
	quick := flag.Bool("quick", false, "shrink workloads for a fast smoke run")
	asJSON := flag.Bool("json", false, "emit results as a JSON object instead of text tables")
	concurrency := flag.String("concurrency", "", "run the concurrent-read benchmark at these goroutine counts (e.g. 1,4,8)")
	duration := flag.Duration("duration", 2*time.Second, "measurement window per concurrency level")
	concOut := flag.String("concurrency-out", "BENCH_concurrency.json", "where -concurrency writes its JSON report")
	shed := flag.String("shed", "", "run the load-shedding benchmark at these offered client counts (e.g. 1,2,4,8,16)")
	shedActive := flag.Int("shed-active", 2, "admission gate size (active slots) for -shed")
	shedOut := flag.String("shed-out", "BENCH_shed.json", "where -shed writes its JSON report")
	flag.Parse()

	if *concurrency != "" {
		if err := runConcurrency(*concurrency, *items, *quick, *duration, *concOut); err != nil {
			fmt.Fprintf(os.Stderr, "concurrency benchmark failed: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *shed != "" {
		if err := runShed(*shed, *items, *shedActive, *quick, *duration, *shedOut); err != nil {
			fmt.Fprintf(os.Stderr, "shed benchmark failed: %v\n", err)
			os.Exit(1)
		}
		return
	}

	sizes := []int{50, 200, 800}
	reps := 20
	inserts := 200
	if *quick {
		sizes = []int{20, 50}
		reps = 3
		inserts = 40
		if *items > 50 {
			*items = 50
		}
	}

	type runner struct {
		id  string
		fn  func() (bench.Table, error)
		ref string
	}
	runners := []runner{
		{"E1", func() (bench.Table, error) { return bench.RunE1(sizes) }, "storage-cost table"},
		{"E2", func() (bench.Table, error) { return bench.RunE2(sizes, reps/4+1) }, "bulk-load figure"},
		{"E3", func() (bench.Table, error) { return bench.RunE3(*items, reps) }, "ordered-query figures"},
		{"E4", func() (bench.Table, error) { return bench.RunE4(*items) }, "update-by-position figure"},
		{"E5", func() (bench.Table, error) { return bench.RunE5(sizes) }, "update-vs-size figure"},
		{"E6", func() (bench.Table, error) { return bench.RunE6(*items, inserts, []uint32{1, 4, 16, 64}) }, "gap amortization"},
		{"E7", func() (bench.Table, error) { return bench.RunE7(*items, reps/4+1) }, "reconstruction figure"},
		{"E8", func() (bench.Table, error) { return bench.RunE8(*items, reps) }, "Dewey codec ablation"},
		{"E9", func() (bench.Table, error) { return bench.RunE9(sizes, reps/2+1) }, "query scaling"},
	}

	want := strings.ToUpper(*exp)
	ran := false
	var results []jsonResult
	for _, r := range runners {
		if want != "" && r.id != want {
			continue
		}
		ran = true
		t, err := r.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.id, err)
			os.Exit(1)
		}
		if *asJSON {
			results = append(results, jsonResult{
				Experiment: r.id,
				Reference:  r.ref,
				Title:      strings.TrimPrefix(t.Title, r.id+": "),
				Note:       t.Note,
				Header:     t.Header,
				Rows:       t.Rows,
			})
			continue
		}
		t.Title = r.id + " (" + r.ref + ") — " + strings.TrimPrefix(t.Title, r.id+": ")
		fmt.Println(t.String())
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want E1..E9)\n", *exp)
		os.Exit(2)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		out := jsonOutput{SchemaVersion: jsonSchemaVersion, Results: results}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "encode results: %v\n", err)
			os.Exit(1)
		}
	}
}

// runConcurrency parses the goroutine-count list, runs the closed-loop
// concurrent-read benchmark, prints the table and writes the JSON report.
func runConcurrency(levels string, items int, quick bool, window time.Duration, outPath string) error {
	var counts []int
	for _, f := range strings.Split(levels, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -concurrency list %q: each entry must be a positive integer", levels)
		}
		counts = append(counts, n)
	}
	if quick {
		if items > 50 {
			items = 50
		}
		if window > 500*time.Millisecond {
			window = 500 * time.Millisecond
		}
	}
	rep, err := bench.RunConcurrency(items, counts, window)
	if err != nil {
		return err
	}
	fmt.Println(bench.ConcurrencyTable(rep).String())
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", outPath)
	return nil
}

// runShed parses the offered-client list, runs the load-shedding benchmark,
// prints the table and writes the JSON report.
func runShed(levels string, items, maxActive int, quick bool, window time.Duration, outPath string) error {
	var offered []int
	for _, f := range strings.Split(levels, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -shed list %q: each entry must be a positive integer", levels)
		}
		offered = append(offered, n)
	}
	if maxActive < 1 {
		return fmt.Errorf("bad -shed-active %d: want a positive integer", maxActive)
	}
	if quick {
		if items > 50 {
			items = 50
		}
		if window > 500*time.Millisecond {
			window = 500 * time.Millisecond
		}
	}
	rep, err := bench.RunShed(items, offered, maxActive, window)
	if err != nil {
		return err
	}
	fmt.Println(bench.ShedTable(rep).String())
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", outPath)
	return nil
}
