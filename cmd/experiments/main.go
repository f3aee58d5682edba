// Command experiments regenerates the paper's evaluation: Table 1 and
// Figures 12–15, plus the Section 9 parallel-strategy analysis, printing
// paper-style rows (and optionally a Markdown report for EXPERIMENTS.md).
//
// Usage:
//
//	experiments [-sf 0.002] [-seed 7] [-p 0.10] [-only fig12] [-markdown]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var ids []string
	for _, e := range experiments.Experiments {
		ids = append(ids, e.ID)
	}
	sf := flag.Float64("sf", 0.002, "TPC-D scale factor")
	seed := flag.Int64("seed", 7, "data generation seed")
	p := flag.Float64("p", 0.10, "change fraction (paper default: 10% decrease)")
	only := flag.String("only", "", "run a single experiment: "+strings.Join(ids, ", "))
	markdown := flag.Bool("markdown", false, "emit Markdown tables instead of plain text")
	chart := flag.Bool("chart", false, "render ASCII bar charts (the paper's figures)")
	flag.Parse()

	cfg := experiments.Config{SF: *sf, Seed: *seed, ChangeFrac: *p}
	ran := false
	for _, e := range experiments.Experiments {
		if *only != "" && *only != e.ID {
			continue
		}
		ran = true
		start := time.Now()
		res, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		switch {
		case *markdown:
			fmt.Print(markdownResult(res))
		case *chart:
			fmt.Print(res.Chart())
		default:
			fmt.Print(res.Format())
		}
		fmt.Printf("(%s ran in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (have %s)\n", *only, strings.Join(ids, ", "))
		os.Exit(2)
	}
}

func markdownResult(r experiments.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", r.ID, r.Title)
	if r.PaperClaim != "" {
		fmt.Fprintf(&b, "*Paper:* %s\n\n", r.PaperClaim)
	}
	b.WriteString("| strategy | work | elapsed | predicted | |\n|---|---:|---:|---:|---|\n")
	for _, row := range r.Rows {
		pred := ""
		if row.Predicted >= 0 {
			pred = fmt.Sprintf("%.0f", row.Predicted)
		}
		fmt.Fprintf(&b, "| %s | %d | %s | %s | %s |\n",
			row.Label, row.Work, row.Elapsed.Round(time.Microsecond), pred, row.Marker)
	}
	b.WriteString("\n")
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "- %s\n", n)
	}
	b.WriteString("\n")
	return b.String()
}
