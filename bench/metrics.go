package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// metricDef declares one metric of the benchmark: the catalogue that
// BENCHMARK.json, the README and every run's output share.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees on every workload, with
// the share of the parent's median each may worsen by before a change counts
// as a regression. The driver reads every one of them from every workload's
// run, so a metric only one workload's user sees (recovery, staleness, the
// drain rate), or one that two sets of runs of the same code do not agree on
// (the query's latency; README.md, "Repeatability"), is a layer metric of the
// traced run instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"window_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the traced run's metrics, one layer (package) per prefix.
var perLayer = []metricDef{
	{"core.comp_ms", "ms", "lower", 0},
	{"core.inst_ms", "ms", "lower", 0},
	{"core.comp_ns_per_tuple", "ns", "lower", 0},
	{"core.inst_ns_per_row", "ns", "lower", 0},
	{"core.comp_ms.Q3", "ms", "lower", 0},
	{"core.comp_ms.Q5", "ms", "lower", 0},
	{"core.comp_ms.Q10", "ms", "lower", 0},
	{"core.max_step_share", "ratio", "lower", 0},
	{"core.operand_tuples", "count", "lower", 0},
	{"core.terms", "count", "lower", 0},
	{"core.build_cache_hit_ratio", "ratio", "higher", 0},
	{"core.shared_hit_ratio", "ratio", "higher", 0},
	{"core.shared_tuples_saved", "count", "higher", 0},
	{"core.shared_bytes_peak", "bytes", "lower", 0},
	{"core.spill_count", "count", "lower", 0},
	{"core.spilled_bytes", "bytes", "lower", 0},
	{"core.spill_reread_bytes", "bytes", "lower", 0},
	{"memory.peak_reserved_bytes", "bytes", "lower", 0},
	{"parallel.speedup", "ratio", "higher", 0},
	{"parallel.critical_path_frac", "ratio", "lower", 0},
	{"parallel.worker_imbalance", "ratio", "lower", 0},
	{"planner.stats_ms", "ms", "lower", 0},
	{"planner.search_ms", "ms", "lower", 0},
	{"planner.examined", "count", "lower", 0},
	{"strategy.validate_ms", "ms", "lower", 0},
	{"cost.estimate_ms", "ms", "lower", 0},
	{"cost.predict_ratio", "ratio", "lower", 0},
	{"planner.prune_ms.v6", "ms", "lower", 0},
	{"planner.prune_ms.v7", "ms", "lower", 0},
	{"planner.prune_ms.v8", "ms", "lower", 0},
	{"planner.shared_ms.v6", "ms", "lower", 0},
	{"planner.shared_ms.v7", "ms", "lower", 0},
	{"planner.minwork_us.v8", "us", "lower", 0},
	{"cost.work_wall_r2", "ratio", "higher", 0},
	{"cost.plan_regret", "ratio", "lower", 0},
	{"storage.clone_us", "us", "lower", 0},
	{"warehouse.state_digest_ms", "ms", "lower", 0},
	{"warehouse.stage_ms", "ms", "lower", 0},
	{"warehouse.first_query_us", "us", "lower", 0},
	{"warehouse.window_self_ms", "ms", "lower", 0},
	{"warehouse.window_ms_p90", "ms", "lower", 0},
	{"warehouse.changes_per_s", "1/s", "higher", 0},
	{"journal.write_ms", "ms", "lower", 0},
	{"journal.sync_ms", "ms", "lower", 0},
	{"journal.syncs", "count", "lower", 0},
	{"journal.bytes", "bytes", "lower", 0},
	{"journal.bytes_per_change", "bytes", "lower", 0},
	{"journal.readlog_ms", "ms", "lower", 0},
	{"recovery.crash_to_query_ms", "ms", "lower", 0},
	{"recovery.recover_ms", "ms", "lower", 0},
	{"snapshot.write_ms", "ms", "lower", 0},
	{"snapshot.read_ms", "ms", "lower", 0},
	{"snapshot.bytes", "bytes", "lower", 0},
	{"replicate.replay_ms", "ms", "lower", 0},
	{"replicate.ship_bytes", "bytes", "lower", 0},
	{"sqlparse.parse_us", "us", "lower", 0},
	{"plancache.hit_ratio", "ratio", "higher", 0},
	{"serve.wait_us_p50", "us", "lower", 0},
	{"serve.wait_us_p99", "us", "lower", 0},
	{"serve.exec_us_p50", "us", "lower", 0},
	{"serve.exec_us_p99", "us", "lower", 0},
	{"serve.exec_us_p50.k0", "us", "lower", 0},
	{"serve.exec_us_p50.k1", "us", "lower", 0},
	{"serve.exec_us_p50.k2", "us", "lower", 0},
	{"serve.exec_us_p50.k3", "us", "lower", 0},
	{"serve.exec_us_p50.k4", "us", "lower", 0},
	{"serve.http_overhead_us_p50", "us", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.expired", "count", "lower", 0},
	{"serve.during_window_ratio", "ratio", "lower", 0},
	{"serve.drain_query_us_p50", "us", "lower", 0},
	{"serve.query_us_p50", "us", "lower", 0},
	{"serve.query_us_p75", "us", "lower", 0},
	{"serve.query_us_p99", "us", "lower", 0},
	{"ingest.submit_us_p50", "us", "lower", 0},
	{"ingest.submit_us_p99", "us", "lower", 0},
	{"ingest.batches", "count", "lower", 0},
	{"ingest.batch_changes_p50", "count", "higher", 0},
	{"ingest.window_ms_p50", "ms", "lower", 0},
	{"ingest.window_ms_p99", "ms", "lower", 0},
	{"ingest.staleness_ms_p50", "ms", "lower", 0},
	{"ingest.staleness_ms_p95", "ms", "lower", 0},
	{"ingest.staleness_ms_p99", "ms", "lower", 0},
	{"ingest.queue_wait_ms_p50", "ms", "lower", 0},
	{"ingest.drain_changes_per_s", "1/s", "higher", 0},
	{"ingest.queue_depth_max", "count", "lower", 0},
	{"ingest.shed", "count", "lower", 0},
	{"ingest.blocked_ms", "ms", "lower", 0},
	{"ingest.predict_ratio", "ratio", "lower", 0},
	{"ingest.work_per_change", "count", "lower", 0},
	{"bench.generator_lag_ms_max", "ms", "lower", 0},
	{"bench.trace_overhead_frac", "ratio", "lower", 0},
	{"bench.host_factor", "ratio", "lower", 0},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics turns the run's samples into the end-to-end metrics. The
// two timings are reported at the reference kernel's nominal speed (calib.go).
func (r *runner) endToEndMetrics() map[string]float64 {
	return map[string]float64{
		"setup_s":       r.hostSetup.atNominal(r.setupS, r.setupAt),
		"window_p50_ms": r.hostMain.atNominal(r.windowMS, r.windowAt),
		"peak_rss_mb":   peakRSSMB(),
	}
}

// rawTimings are the end-to-end timings as the clock read them.
func (r *runner) rawTimings() map[string]float64 {
	return map[string]float64{
		"setup_s":       median(r.setupS),
		"window_p50_ms": median(r.windowMS),
	}
}

// queryLatencies returns the latencies of the queries due while the windows
// the run samples were running, or of those due after that, during an open
// loop's drain. The drain is saturation on purpose: its stalls are a
// different regime.
func (r *runner) queryLatencies(drain bool) []float64 {
	var out []float64
	for _, q := range r.qs.recs {
		if q.due.After(r.mainEnd) == drain {
			out = append(out, q.latencyUS)
		}
	}
	return out
}

// layerMetrics turns the traced run's samples into the per-layer metrics.
// A layer the workload does not exercise reports 0.
func (r *runner) layerMetrics() map[string]float64 {
	l := r.lay
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	m := map[string]float64{
		"core.comp_ms":                median(l.compMS),
		"core.inst_ms":                median(l.instMS),
		"core.comp_ns_per_tuple":      median(l.compNSPerTuple),
		"core.inst_ns_per_row":        median(l.instNSPerRow),
		"core.max_step_share":         median(l.maxStepShare),
		"core.operand_tuples":         float64(r.prefix.operandTuples),
		"core.terms":                  float64(r.prefix.terms),
		"core.build_cache_hit_ratio":  ratio(l.cacheHits, l.cacheMisses),
		"core.shared_hit_ratio":       ratio(l.sharedHits, l.sharedMisses),
		"core.shared_tuples_saved":    float64(l.sharedSaved),
		"core.shared_bytes_peak":      float64(l.sharedPeak),
		"core.spill_count":            median(l.spills),
		"core.spilled_bytes":          median(l.spilledBytes),
		"core.spill_reread_bytes":     median(l.rereadBytes),
		"memory.peak_reserved_bytes":  float64(l.memPeak),
		"parallel.speedup":            median(l.speedup),
		"parallel.critical_path_frac": median(l.critFrac),
		"parallel.worker_imbalance":   median(l.imbalance),
		"planner.stats_ms":            median(l.statsMS),
		"planner.search_ms":           median(l.searchMS),
		"planner.examined":            float64(r.prefix.examined),
		"strategy.validate_ms":        median(l.validateMS),
		"cost.estimate_ms":            median(l.estimateMS),
		"cost.predict_ratio":          median(l.predictRatio),
		"storage.clone_us":            median(l.cloneUS),
		"warehouse.state_digest_ms":   median(l.digestMS),
		"warehouse.stage_ms":          median(l.stageMS),
		"warehouse.first_query_us":    median(l.firstQueryUS),
		"warehouse.window_self_ms":    median(l.selfMS),
		"warehouse.window_ms_p90":     percentile(r.windowMS, 90),
		"warehouse.changes_per_s":     r.closedChangesPerS,
		"ingest.drain_changes_per_s":  r.drainChangesPerS,
		"serve.query_us_p50":          percentile(r.queryLatencies(false), 50),
		"serve.query_us_p75":          percentile(r.queryLatencies(false), 75),
		"serve.query_us_p99":          percentile(r.queryLatencies(false), 99),
		"ingest.staleness_ms_p50":     percentile(r.stalenessMS, 50),
		"ingest.staleness_ms_p95":     percentile(r.stalenessMS, 95),
		"ingest.staleness_ms_p99":     percentile(r.stalenessMS, 99),
		"journal.write_ms":            median(l.jWriteMS),
		"journal.sync_ms":             median(l.jSyncMS),
		"journal.syncs":               float64(r.prefix.syncs),
		"journal.bytes":               median(l.jBytes),
		"journal.readlog_ms":          l.journalOpenMS,
		"recovery.crash_to_query_ms":  median(r.recoverMS),
		"recovery.recover_ms":         median(l.recoverMS),
		"replicate.replay_ms":         median(l.replayMS),
		"replicate.ship_bytes":        float64(l.shipBytes),
		"serve.shed":                  float64(l.serverStats.Shed),
		"serve.expired":               float64(l.serverStats.Expired),
		"serve.during_window_ratio":   during(r.qs.recs, r.intervals),
		"serve.drain_query_us_p50":    median(r.queryLatencies(true)),
		"ingest.batches":              float64(l.ingestStats.Batches),
		"ingest.batch_changes_p50":    median(l.ingBatch),
		"ingest.window_ms_p50":        percentile(l.ingWindowMS, 50),
		"ingest.window_ms_p99":        percentile(l.ingWindowMS, 99),
		"ingest.queue_depth_max":      float64(l.ingQueueMax),
		"ingest.shed":                 float64(l.ingestStats.Shed),
		"ingest.predict_ratio":        median(l.ingPredict),
		"ingest.work_per_change":      l.ingestStats.WorkPerChange,
		"bench.generator_lag_ms_max":  r.qs.lagMaxMS,
		"bench.host_factor":           r.hostMain.factor(),
	}
	for _, v := range []string{"Q3", "Q5", "Q10"} {
		m["core.comp_ms."+v] = median(l.compByView[v])
	}
	if l.jChanges > 0 {
		m["journal.bytes_per_change"] = float64(l.jBytesTotal) / float64(l.jChanges)
	}
	pc := r.fx.w.PlanCacheStats()
	m["plancache.hit_ratio"] = ratio(int64(pc.Hits), int64(pc.Misses))

	var wait, execUS, overhead []float64
	byKind := make([][]float64, len(r.fx.queries))
	for _, q := range r.qs.recs {
		if !q.ok {
			continue
		}
		wait = append(wait, q.waitUS)
		execUS = append(execUS, q.execUS)
		overhead = append(overhead, q.overheadUS)
		byKind[q.kind] = append(byKind[q.kind], q.execUS)
	}
	m["serve.wait_us_p50"], m["serve.wait_us_p99"] = percentile(wait, 50), percentile(wait, 99)
	m["serve.exec_us_p50"], m["serve.exec_us_p99"] = percentile(execUS, 50), percentile(execUS, 99)
	m["serve.http_overhead_us_p50"] = median(overhead)
	for k, xs := range byKind {
		m["serve.exec_us_p50.k"+strconv.Itoa(k)] = median(xs)
	}
	if ir := r.ing; ir != nil {
		m["ingest.submit_us_p50"], m["ingest.submit_us_p99"] = percentile(ir.submitUS, 50), percentile(ir.submitUS, 99)
		m["ingest.blocked_ms"] = ir.blockedMS
		if ir.lagMaxMS > m["bench.generator_lag_ms_max"] {
			m["bench.generator_lag_ms_max"] = ir.lagMaxMS
		}
		// What a change waits before its window starts: the rest of its
		// staleness is the window itself.
		m["ingest.queue_wait_ms_p50"] = median(r.stalenessMS) - median(r.windowMS)
	}
	// Traced and bare windows alternate, so the ratio of their medians is what
	// the spans and the journal timing cost a window.
	if len(l.bareMS) > 0 && len(l.tracedMS) > 0 {
		m["bench.trace_overhead_frac"] = median(l.tracedMS)/median(l.bareMS) - 1
	}
	for k, v := range l.extra {
		m[k] = v
	}
	return m
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
