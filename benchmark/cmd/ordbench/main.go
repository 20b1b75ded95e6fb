// Command ordbench is the repository's benchmark; see ../../README.md.
//
//	ordbench -workload W [-seed N] [-seconds S] [-trace 0|1]   one run; the last line of output is JSON
//	ordbench trace -workload W ...                             the same as -trace 1
//	ordbench probes [-seed N]                                  the layer probes alone
//	ordbench selfcheck [-seed N] [-seconds S]                  repeatability report (Markdown)
//	ordbench manifest                                          BENCHMARK.json
//	ordbench -list                                             every workload and metric name
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ordxml/benchmark"
)

func main() {
	cfg := benchmark.Config{Start: time.Now()}
	args := os.Args[1:]
	sub := ""
	if len(args) > 0 && args[0] != "" && args[0][0] != '-' {
		sub, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("ordbench", flag.ExitOnError)
	trace := fs.Int("trace", 0, "1 for a traced run (per-layer metrics), 0 for end-to-end metrics")
	list := fs.Bool("list", false, "print every workload and metric name and exit")
	fs.StringVar(&cfg.Workload, "workload", "", "workload to run")
	fs.Int64Var(&cfg.Seed, "seed", 42, "corpus seed")
	fs.IntVar(&cfg.Seconds, "seconds", 20, "length of the timed section the run is sized for")
	fs.StringVar(&cfg.Scratch, "dir", ".bench_build", "directory for store directories and the span file, spans-<workload>.json")
	fs.Parse(args)

	if err := dispatch(sub, cfg, *trace == 1, *list); err != nil {
		fmt.Fprintln(os.Stderr, "ordbench:", err)
		os.Exit(1)
	}
}

func dispatch(sub string, cfg benchmark.Config, trace, list bool) error {
	switch {
	case list:
		for _, name := range benchmark.BuildManifest().Names() {
			fmt.Println(name)
		}
		return nil
	case sub == "manifest":
		data, err := benchmark.BuildManifest().JSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	case sub == "probes":
		values, defs, err := benchmark.Probes(cfg)
		if err != nil {
			return err
		}
		for _, d := range defs {
			fmt.Printf("%-44s %14.6g %s\n", d.Name, values[d.Name], d.Unit)
		}
		return nil
	case sub == "selfcheck":
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		return benchmark.SelfCheck(os.Stdout, exe, cfg)
	case sub == "trace":
		trace = true
	case sub != "" && sub != "run":
		return fmt.Errorf("unknown command %q", sub)
	}
	var (
		res  *benchmark.Result
		err  error
		defs = benchmark.EndToEnd()
	)
	if trace {
		defs = benchmark.PerLayer()
		res, err = benchmark.Trace(cfg)
	} else {
		res, err = benchmark.Run(cfg)
	}
	if err != nil {
		return err
	}
	return res.Print(os.Stdout, defs)
}
