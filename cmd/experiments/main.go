// Command experiments regenerates the paper's evaluation: Table 1 and
// Figures 12–15, the Section 9 parallel-strategy analysis and three
// extensions, printed as Markdown. At the defaults its output is
// EXPERIMENTS.md's generated block.
//
// Usage:
//
//	experiments [-sf 0.002] [-seed 7] [-p 0.10] [-only fig12]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the experiments and returns the exit code: 2 for a
// usage error, 1 for a failed experiment.
func run(args []string, stdout, stderr io.Writer) int {
	var ids []string
	for _, e := range experiments.Experiments {
		ids = append(ids, e.ID)
	}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sf := fs.Float64("sf", 0.002, "TPC-D scale factor")
	seed := fs.Int64("seed", 7, "data generation seed")
	p := fs.Float64("p", 0.10, "change fraction (paper default: 10% decrease)")
	only := fs.String("only", "", "run a single experiment: "+strings.Join(ids, ", "))
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := experiments.Config{SF: *sf, Seed: *seed, ChangeFrac: *p}
	if *only == "" {
		results, err := experiments.All(cfg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprint(stdout, experiments.Report(cfg, results))
		return 0
	}
	for _, e := range experiments.Experiments {
		if e.ID == *only {
			res, err := e.Run(cfg)
			if err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", e.ID, err)
				return 1
			}
			fmt.Fprint(stdout, res.Markdown())
			return 0
		}
	}
	fmt.Fprintf(stderr, "unknown experiment %q (have %s)\n", *only, strings.Join(ids, ", "))
	return 2
}
