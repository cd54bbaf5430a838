// Command vbench regenerates the paper's tables and figures over the
// synthetic datasets, and the engine-extension benchmarks committed as
// BENCH_*.json. By default it runs every experiment at full scale (the
// paper's dataset sizes) and prints each result next to the paper's
// headline numbers.
//
// Usage:
//
//	vbench [-exp table2|table3|...|all] [-scale 0.1] [-list]
//	vbench -exp chaos -json BENCH_chaos.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"eva/internal/vbench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as arguments; it returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id to run (or 'all')")
	scale := fs.Float64("scale", 1.0, "dataset scale factor in (0, 1]; 1.0 = paper-sized")
	list := fs.Bool("list", false, "list experiments and exit")
	jsonPath := fs.String("json", "", "also write the selected experiment's data as indented JSON to this path (e.g. -exp chaos -json BENCH_chaos.json)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	exps := vbench.Experiments()
	if *list {
		for _, e := range exps {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if *exp != "all" {
		e, err := vbench.ExperimentByID(*exp)
		if err != nil {
			return fail(err)
		}
		exps = []vbench.Experiment{e}
	}
	// Refused before anything runs: a paper-sized table takes minutes.
	if *jsonPath != "" && len(exps) != 1 {
		return fail(fmt.Errorf("vbench: -json writes one experiment's data; -exp %s selects %d", *exp, len(exps)))
	}
	if *jsonPath != "" && exps[0].Baseline == "" {
		return fail(fmt.Errorf("vbench: experiment %q is text-only: it has no data for -json", *exp))
	}

	for _, e := range exps {
		fmt.Fprintf(stdout, "=== %s ===\n", e.Title)
		fmt.Fprintf(stdout, "paper: %s\n\n", e.Paper)
		start := time.Now()
		rep, err := e.Run(vbench.ExpConfig{Scale: *scale})
		if err != nil {
			return fail(fmt.Errorf("%s: %w", e.ID, err))
		}
		fmt.Fprint(stdout, rep.Text)
		fmt.Fprintf(stdout, "\n(%s wall)\n\n", time.Since(start).Round(time.Millisecond))
		if *jsonPath == "" {
			continue
		}
		data, err := json.MarshalIndent(rep.Data, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
	}
	return 0
}
