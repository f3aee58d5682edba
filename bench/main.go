// Command bench is the benchmark of this repository: one run of one workload
// prints every metric by name with its unit, checks that the program's
// outputs are correct, and ends with one JSON line for the driver. See
// README.md for the catalogue of workloads and metrics.
//
//	bench -workload batch-seq -seed 1 -seconds 20 -trace 0
//	bench -workload batch-seq -seed 1 -seconds 20 -trace 1   # per-layer run
//	bench -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	warehouse "repro"
)

// workloads is the benchmark's workload table. Each why is the reason the
// workload exists: which layers carry it and which it leaves idle. The window
// rates are what the seed program does on the two cores the benchmark was
// written on, so that -seconds 20 is about twenty seconds of windows there.
var workloads = []*workloadCfg{
	{
		name: "batch-seq",
		why:  "the paper's setting on the default engine: operand scans, installs, clone, digest and journal carry the window; planner, scheduler, sharing and spill stay idle",
		build: func(seed int64, smoke bool) (*fixture, error) {
			return buildTPCD(tpcdSF(0.004, smoke), seed, warehouse.Options{}, 0)
		},
		eng:         engine{planner: warehouse.MinWorkPlanner, mode: warehouse.ModeSequential, workers: workers},
		setupRounds: 9, queryRate: 60,
		batchFrac: 0.01, warmup: 3, windowsPerSec: 3, prefix: 20, crashEvery: 5,
	},
	{
		name: "batch-dag-bounded",
		why:  "same data and batches on the tuned engine: DAG scheduler, morsel pool, shared registry and a 4 MiB budget that spills; a scan gain shows on both batch workloads, a spill or sharing gain only here",
		build: func(seed int64, smoke bool) (*fixture, error) {
			return buildTPCD(tpcdSF(0.004, smoke), seed, dagBoundedOptions(smoke), 0)
		},
		eng:         engine{planner: warehouse.SharedPlanner, mode: warehouse.ModeDAG, workers: workers},
		setupRounds: 9, queryRate: 60,
		batchFrac: 0.01, warmup: 3, windowsPerSec: 2, prefix: 20,
	},
	{
		name: "plan-space",
		why:  "seven views with parents, 5040 orderings, small data: the planner's search is most of the window and the evaluator little, the inverse of batch-seq",
		build: func(seed int64, smoke bool) (*fixture, error) {
			return buildTPCD(tpcdSF(0.001, smoke), seed, warehouse.Options{}, 1)
		},
		eng:         engine{planner: warehouse.SharedPlanner, mode: warehouse.ModeSequential, workers: workers},
		setupRounds: 25, queryRate: 60,
		batchFrac: 0.01, warmup: 2, windowsPerSec: 1.2, prefix: 8,
		planSweeps: true,
	},
	{
		name: "serve-ingest",
		why:  "open-loop stream of small changes with reads beside it: many tiny windows make the per-window fixed costs (clone, digest, fsync, adopt) dominate while queries read snapshots the windows detach from",
		build: func(seed int64, smoke bool) (*fixture, error) {
			if smoke {
				return buildRetail(16, 12_000, seed, retailOptions)
			}
			return buildRetail(256, retailSalesRows, seed, retailOptions)
		},
		eng:         engine{planner: warehouse.MinWorkPlanner, mode: warehouse.ModeSequential, workers: workers},
		setupRounds: 25, queryRate: 100,
		batchFrac: 0.002, prefix: 8,
		open: &openLoop{
			rate: 2000, submitSize: 20,
			slo: 250 * time.Millisecond, tick: 100 * time.Millisecond, queueLimit: 4096,
			streamShare: 0.6, drainSegments: 5, drainPerSec: 5000,
			probeWindows: 8,
		},
	},
}

// retailSalesRows sizes the serve-ingest fact table, and with the 100 ms tick
// sets how much memory the run ends on. A journaled window digests the whole
// state and copies each table it touches, so its length follows this number
// and not the batch; and every window's copies stay reachable from the
// warehouse's window history (see README.md, "Where the memory goes"), so the
// heap grows by two table copies per window. With 100 000 rows and the
// default 5 ms tick the heap passed 3 GB in 25 s and the collector took the
// cores from the queries; 5 000 rows and 10 windows a second end a 20 s run
// near 0.6 GB. Twenty windows and 200 queries a second fitted on two cores
// only while the host was in its faster states (README.md, "Deviations").
const retailSalesRows = 5_000

// retailOptions is the serve-ingest engine. STORES never changes, and
// without SkipEmptyDeltas every window would still scan all of SALES for the
// empty δSTORES term: an operator streaming into a star schema turns that on.
var retailOptions = warehouse.Options{SkipEmptyDeltas: true}

// dagBoundedOptions is the tuned engine. The budget is what makes builds
// spill: 4 MiB at the workload's scale, less at the smoke scale so the spill
// path still runs there.
func dagBoundedOptions(smoke bool) warehouse.Options {
	budget := int64(4 << 20)
	if smoke {
		budget = 256 << 10
	}
	return warehouse.Options{ParallelTerms: true, Workers: workers, ShareComputation: true, MemoryBudgetBytes: budget}
}

// smokeScale shrinks a workload's schedule to match the smoke-scale data its
// build function produces: two set-ups, three windows, one crash.
func (c workloadCfg) smokeScale() *workloadCfg {
	c.setupRounds, c.warmup, c.windowsPerSec, c.prefix = 2, 0, 0, 3
	if c.planSweeps {
		c.prefix = 2 // each window is half a second of search at any scale
	}
	if c.crashEvery > 0 {
		c.crashEvery = 2
	}
	if c.open != nil {
		o := *c.open
		o.probeWindows = c.prefix
		c.open = &o
	}
	return &c
}

func findWorkload(name string) *workloadCfg {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// provenance is the host and build shape every output carries.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Smoke      bool    `json:"smoke,omitempty"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Workers    int     `json:"engine_workers"`
	Planner    string  `json:"planner"`
	Mode       string  `json:"mode"`
	// Flush is the journal's flush policy, unchanged by the benchmark.
	Flush string `json:"flush_policy"`
}

func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// result is one run's full output; -out appends it as a JSON line, and
// -compare reads such lines back.
type result struct {
	Provenance provenance       `json:"provenance"`
	Correct    bool             `json:"correct"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Metrics    map[string]value `json:"metrics"`
	// Samples is the number of observations behind each timing, and
	// Percentiles the timing's distribution at the ladder of tail percentiles
	// (s for setup; ms for window, recover and staleness; µs for query).
	// Raw are the end-to-end timings as the clock read them, and HostFactor
	// how slow the host ran beside the set-up rounds and beside the sampled
	// windows (the reference kernel's median reading over its nominal time):
	// a reported setup_s or window_p50_ms is the raw one over its phase's
	// factor. The layer metrics of a traced run are all as the clock read them.
	Raw         map[string]float64            `json:"raw"`
	HostFactor  map[string]float64            `json:"host_factor"`
	Samples     map[string]int                `json:"samples"`
	Percentiles map[string]map[string]float64 `json:"percentiles"`
	// Counts repeat exactly for a seed: they are taken over a fixed prefix of
	// the operator's windows.
	Counts   map[string]int64 `json:"counts,omitempty"`
	Digest   string           `json:"prefix_state_digest,omitempty"`
	Problems []string         `json:"problems,omitempty"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name     = flag.String("workload", "", "workload to run: batch-seq, batch-dag-bounded, plan-space or serve-ingest")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", runSeconds, "how much to measure: about this many seconds of windows")
		trace    = flag.Int("trace", 0, "1 runs the traced variant: per-layer metrics and a span file under out/")
		smoke    = flag.Bool("smoke", false, "tiny scale, for tests")
		out      = flag.String("out", "", "append the full result as a JSON line to this file")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare a.jsonl b.jsonl")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json, generated from the workload and metric tables")
	)
	flag.Parse()
	if *manifest {
		os.Stdout.Write(manifestJSON())
		return 0
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	cfg := findWorkload(*name)
	if cfg == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	res, err := runWorkload(cfg, *seed, *seconds, *trace == 1, *smoke, "out")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printResult(res, *trace == 1)
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	// The driver's line: exactly these four keys, last on standard output.
	last, _ := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics,
	})
	fmt.Println(string(last))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload once. Everything the run writes — journals,
// spill directories, crash files — lives in a fresh directory under outDir
// that is removed when the run ends; only a traced run's span file stays.
func runWorkload(cfg *workloadCfg, seed int64, seconds float64, trace, smoke bool, outDir string) (*result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	outDir, err := filepath.Abs(outDir)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Spill directories of journals without a path fall back to the
	// system's temporary directory; keep them inside the run directory.
	os.Setenv("TMPDIR", dir)

	if smoke {
		cfg = cfg.smokeScale()
	}
	r := &runner{
		cfg: cfg, seed: seed, seconds: seconds, smoke: smoke, dir: dir,
		rng: rand.New(rand.NewSource(seed ^ 0xc7a5)),
		lay: newLayerStats(),
	}
	if trace {
		r.tr = newTracer()
	}
	if err := r.run(); err != nil {
		return nil, err
	}
	res := &result{
		Provenance: provenance{
			Workload: cfg.name, Seed: seed, Seconds: seconds, Trace: trace, Smoke: smoke,
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: gitCommit(), Workers: cfg.eng.workers,
			Planner: string(cfg.eng.planner), Mode: string(cfg.eng.mode),
			Flush: "fsync per journal record",
		},
		Metrics:    make(map[string]value),
		Raw:        r.rawTimings(),
		HostFactor: map[string]float64{"setup": r.hostSetup.factor(), "windows": r.hostMain.factor()},
		Samples: map[string]int{
			"setup": len(r.setupS), "window": len(r.windowMS), "query": len(r.queryLatencies(false)),
			"staleness": len(r.stalenessMS), "recover": len(r.recoverMS),
			"host_setup": len(r.hostSetup.ms), "host_windows": len(r.hostMain.ms),
		},
		Percentiles: map[string]map[string]float64{
			"setup": ladder(r.setupS), "window": ladder(r.windowMS), "query": ladder(r.queryLatencies(false)),
			"staleness": ladder(r.stalenessMS), "recover": ladder(r.recoverMS),
		},
		Digest: fmt.Sprintf("%016x", r.prefix.digest),
	}
	defs, vals := endToEnd, r.endToEndMetrics()
	if trace {
		r.endProbes()
		if cfg.planSweeps {
			if err := r.planSpaceProbes(); err != nil {
				return nil, err
			}
		}
		defs, vals = perLayer, r.layerMetrics()
		res.Counts = map[string]int64{
			"core.operand_tuples": r.prefix.operandTuples, "core.terms": r.prefix.terms,
			"planner.examined": r.prefix.examined, "journal.syncs": r.prefix.syncs,
		}
		if err := r.tr.write(filepath.Join(outDir, "trace-"+cfg.name+".jsonl")); err != nil {
			return nil, err
		}
	}
	for _, d := range defs {
		res.Metrics[d.Name] = value{Value: vals[d.Name], Unit: d.Unit}
	}
	// Queries are operations too: one that failed, timed out or came from an
	// epoch older than one the connection had seen counts as failed.
	for _, q := range r.qs.recs {
		r.ops++
		if !q.ok {
			r.failed++
		}
	}
	if r.qs.backwards > 0 {
		r.failN(r.qs.backwards, "%d query response(s) went back to an older epoch", r.qs.backwards)
	}
	r.problems = append(r.problems, r.qs.problems...)
	if !trace {
		// A user-visible metric that reads 0 means the phase behind it did
		// not run; that is a broken run, not a fast one.
		for _, d := range endToEnd {
			if vals[d.Name] <= 0 {
				r.fail("end-to-end metric %s is %v", d.Name, vals[d.Name])
			}
		}
	}
	res.Attempted, res.Failed, res.Problems = r.ops, r.failed, r.problems
	res.Correct = r.failed == 0
	return res, nil
}

// ladder reports a sample at every percentile of the tail ladder.
func ladder(xs []float64) map[string]float64 {
	out := make(map[string]float64, len(tailLadder))
	for _, p := range tailLadder {
		out[fmt.Sprintf("p%g", p)] = percentile(xs, p)
	}
	return out
}

// runSeconds is the -seconds the driver runs with.
const runSeconds = 20

// manifestJSON renders BENCHMARK.json from the tables the runs use, so the
// file the driver reads cannot name a metric the program does not print.
func manifestJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workload{w.name, w.why})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	out, _ := json.MarshalIndent(m, "", "  ")
	return append(out, '\n')
}

func printResult(res *result, trace bool) {
	p := res.Provenance
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", p.Workload, p.Seed, p.Seconds, p.Trace)
	fmt.Printf("host nproc %d GOMAXPROCS %d %s commit %s\n", p.NProc, p.GOMAXPROCS, p.GoVersion, p.Commit)
	fmt.Printf("engine workers %d planner %s mode %s, journal: %s\n", p.Workers, p.Planner, p.Mode, p.Flush)
	for _, k := range []string{"window", "recover", "staleness", "query"} {
		unit := "ms"
		if k == "query" {
			unit = "us"
		}
		n, d := res.Samples[k], res.Percentiles[k]
		if n == 0 {
			continue // the workload has no such user
		}
		fmt.Printf("timing %-9s n=%-5d p50 %.3f, highest supported tail p%g %.3f %s\n",
			k, n, d["p50"], supportedTail(n), d[fmt.Sprintf("p%g", supportedTail(n))], unit)
	}
	fmt.Printf("host: reference kernel at %.3f (set-up, n=%d) and %.3f (windows, n=%d) of its nominal time; as the clock read them, setup_s %.4f and window_p50_ms %.3f\n",
		res.HostFactor["setup"], res.Samples["host_setup"], res.HostFactor["windows"], res.Samples["host_windows"],
		res.Raw["setup_s"], res.Raw["window_p50_ms"])
	fmt.Printf("set-up timed %d times; state digest after the fixed prefix of operator windows: %s\n", res.Samples["setup"], res.Digest)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if trace {
		for _, n := range []string{"core.operand_tuples", "core.terms", "planner.examined", "journal.syncs"} {
			fmt.Printf("  exact %-26s %14d count\n", n, res.Counts[n])
		}
	}
	fmt.Printf("ops %d failed %d correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, msg := range res.Problems {
		fmt.Println("  problem:", msg)
	}
}

func appendResult(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
