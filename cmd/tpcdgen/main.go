// Command tpcdgen writes the synthetic TPC-D data as CSV, one file per base
// view, and optionally a change batch with the signed __count column the
// library uses for delta CSV files. Beside them it writes tpcd.whs, the
// whshell script that defines the warehouse of the paper's Figure 4 over
// those files: the six base views, the Q3, Q5 and Q10 summary views in SQL,
// LOAD of each file, REFRESH, and a DELTA for each batch file.
//
// Usage:
//
//	tpcdgen [-sf 0.001] [-seed 7] [-p 0.10] [-dir out]
//
// One update window over TPC-D, checked against recomputation:
//
//	tpcdgen -sf 0.002 -p 0.10 -dir d
//	(cat d/tpcd.whs; echo 'SHOW STRATEGY prune; WINDOW prune DAG 4; VERIFY;') | whshell
//
// The script names the files as tpcdgen wrote them: run it from the
// directory tpcdgen ran in, or give -dir an absolute path.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/tpcd"
)

func main() {
	sf := flag.Float64("sf", 0.001, "TPC-D scale factor")
	seed := flag.Int64("seed", 7, "generation seed")
	p := flag.Float64("p", 0, "also emit <view>.delta.csv with a p-fraction decrease batch")
	dir := flag.String("dir", ".", "output directory")
	flag.Parse()

	paths, err := tpcd.WriteFiles(tpcd.Config{SF: *sf, Seed: *seed}, *p, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpcdgen:", err)
		os.Exit(1)
	}
	for _, path := range paths {
		fmt.Println("wrote", path)
	}
}
