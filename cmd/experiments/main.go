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
	sf := flag.Float64("sf", 0.002, "TPC-D scale factor")
	seed := flag.Int64("seed", 7, "data generation seed")
	p := flag.Float64("p", 0.10, "change fraction (paper default: 10% decrease)")
	only := flag.String("only", "", "run a single experiment: table1, fig12, fig13, fig14, fig15, parallel")
	markdown := flag.Bool("markdown", false, "emit Markdown tables instead of plain text")
	chart := flag.Bool("chart", false, "render ASCII bar charts (the paper's figures)")
	flag.Parse()

	cfg := experiments.Config{SF: *sf, Seed: *seed, ChangeFrac: *p}
	runners := map[string]func(experiments.Config) (experiments.Result, error){
		"table1":         func(experiments.Config) (experiments.Result, error) { return experiments.Table1(), nil },
		"fig12":          experiments.Fig12,
		"fig13":          experiments.Fig13,
		"fig14":          experiments.Fig14,
		"fig15":          experiments.Fig15,
		"parallel":       experiments.Parallel,
		"stagedvsdag":    experiments.StagedVsDAG,
		"termparallel":   experiments.TermParallel,
		"metric":         experiments.MetricAblation,
		"estimation":     experiments.Estimation,
		"deep":           experiments.Deep,
		"faulttolerance": experiments.FaultTolerance,
		"onlinewindow":   experiments.OnlineWindow,
		"replication":    experiments.Replication,
		"streaming":      experiments.Streaming,
	}
	order := []string{"table1", "fig12", "fig13", "fig14", "fig15", "parallel", "stagedvsdag", "termparallel", "metric", "estimation", "deep", "faulttolerance", "onlinewindow", "replication", "streaming"}

	var ids []string
	if *only != "" {
		if _, ok := runners[*only]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have %s)\n", *only, strings.Join(order, ", "))
			os.Exit(2)
		}
		ids = []string{*only}
	} else {
		ids = order
	}

	for _, id := range ids {
		start := time.Now()
		res, err := runners[id](cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
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
		fmt.Printf("(%s ran in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
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
