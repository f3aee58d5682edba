package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readResults reads a file of JSON lines written by -out.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// verdict is the comparison of one metric on one workload between two sets
// of runs.
type verdict struct {
	workload, metric string
	a, b             float64 // medians
	delta            float64 // share of a by which b is worse (negative: better)
	spread           float64 // the wider of the two sets' interquartile ranges, as a share of the median
	bound            float64
	status           string
}

// judge compares two sets of values of a metric. The delta is signed so that
// positive means b is worse. When either set's own run-to-run spread is
// wider than the bound, a difference of the size of the bound cannot be told
// from noise, and the metric is unresolved rather than unchanged.
func judge(d metricDef, a, b []float64) verdict {
	v := verdict{metric: d.Name, a: median(a), b: median(b), bound: d.Bound}
	if v.a != 0 {
		v.delta = (v.b - v.a) / v.a
		if d.Better == "higher" {
			v.delta = -v.delta
		}
	}
	v.spread = spread(a)
	if s := spread(b); s > v.spread {
		v.spread = s
	}
	switch {
	case d.Bound > 0 && v.spread > d.Bound:
		v.status = "unresolved"
	case d.Bound > 0 && v.delta > d.Bound:
		v.status = "REGRESSION"
	default:
		v.status = "ok"
	}
	return v
}

// compareFiles prints, per workload and metric, both medians, the delta
// against the metric's bound and the verdict. It returns 1 when any
// end-to-end metric regressed or is unresolved.
func compareFiles(w io.Writer, pathA, pathB string) int {
	ra, err := readResults(pathA)
	if err == nil && len(ra) == 0 {
		err = fmt.Errorf("%s holds no results", pathA)
	}
	rb, errB := readResults(pathB)
	if err == nil {
		err = errB
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	type key struct {
		workload string
		trace    bool
	}
	collect := func(rs []result) map[key]map[string][]float64 {
		m := make(map[key]map[string][]float64)
		for _, r := range rs {
			k := key{r.Provenance.Workload, r.Provenance.Trace}
			if m[k] == nil {
				m[k] = make(map[string][]float64)
			}
			for name, v := range r.Metrics {
				m[k][name] = append(m[k][name], v.Value)
			}
		}
		return m
	}
	a, b := collect(ra), collect(rb)
	var keys []key
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})
	bad := 0
	fmt.Fprintf(w, "%-18s %-28s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "median a", "median b", "delta", "spread", "bound", "verdict")
	for _, k := range keys {
		defs := endToEnd
		if k.trace {
			defs = perLayer
		}
		for _, d := range defs {
			va, vb := a[k][d.Name], b[k][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(d, va, vb)
			fmt.Fprintf(w, "%-18s %-28s %14.4f %14.4f %+7.1f%% %7.1f%% %6.0f%%  %s (n=%d,%d)\n",
				k.workload, v.metric, v.a, v.b, 100*v.delta, 100*v.spread, 100*v.bound, v.status, len(va), len(vb))
			if v.status != "ok" {
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d metric(s) regressed or unresolved\n", bad)
		return 1
	}
	fmt.Fprintln(w, "every end-to-end metric within its bound")
	return 0
}
