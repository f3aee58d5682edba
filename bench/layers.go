package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	warehouse "repro"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/ingest"
	"repro/internal/planner"
	"repro/internal/serve"
	"repro/internal/sqlparse"
	"repro/internal/strategy"
	"repro/internal/tpcd"
)

// probes are the layers' public calls repeated on the staged state just
// before a traced window, outside its clock: what the window is about to do
// inside RunWindowOpts, timed one call at a time.
type probes struct {
	ran                                       bool
	statsMS, searchMS, validateMS, estimateMS float64
	cloneUS, digestMS                         float64
	examined                                  int
	estimate                                  float64
}

// windowSample is what the operator loop measured around one window.
type windowSample struct {
	windowMS, stageMS, firstQueryUS float64
	changes                         int
	traced                          bool
	probes                          probes
	// journal counter deltas over the window (traced runs only).
	jWriteMS, jSyncMS float64
	jSyncs, jBytes    int64
}

// layerStats accumulates the per-layer samples of a run. Everything here is
// read from outside the layers: the step reports and counters the window
// returns, the timing wrapper around the journal's file, the fields of the
// query response, and timed calls into public functions.
type layerStats struct {
	compMS, instMS, compNSPerTuple, instNSPerRow []float64
	compByView                                   map[string][]float64
	maxStepShare                                 []float64
	cacheHits, cacheMisses                       int64
	sharedHits, sharedMisses, sharedSaved        int64
	sharedPeak, memPeak                          int64
	spills, spilledBytes, rereadBytes            []float64
	speedup, critFrac, imbalance                 []float64

	statsMS, searchMS, validateMS, estimateMS []float64
	predictRatio, cloneUS, digestMS, selfMS   []float64
	stageMS, firstQueryUS                     []float64
	tracedMS, bareMS                          []float64
	jWriteMS, jSyncMS, jBytes                 []float64
	jBytesTotal, jChanges                     int64

	recoverMS, replayMS []float64
	shipBytes           int64
	journalOpenMS       float64

	ingWindowMS, ingBatch, ingPredict []float64
	ingQueueMax                       int

	serverStats serve.Stats
	ingestStats ingest.Stats

	extra map[string]float64 // end-of-run probes: snapshot, parse, sweeps
}

func newLayerStats() *layerStats {
	return &layerStats{compByView: make(map[string][]float64), extra: make(map[string]float64)}
}

// window folds one operator window's report into the layer samples.
func (l *layerStats) window(rep warehouse.WindowReport, s windowSample) {
	var comp, inst, maxStep, total float64
	busy := make(map[int]float64)
	for _, st := range rep.Report.Steps {
		d := ms(st.Elapsed)
		total += d
		busy[st.Worker] += d
		if d > maxStep {
			maxStep = d
		}
		if c, ok := st.Expr.(warehouse.Comp); ok {
			comp += d
			l.compByView[c.View] = append(l.compByView[c.View], d)
		} else {
			inst += d
		}
	}
	l.compMS = append(l.compMS, comp)
	l.instMS = append(l.instMS, inst)
	if rep.Report.CompWork > 0 {
		l.compNSPerTuple = append(l.compNSPerTuple, comp*1e6/float64(rep.Report.CompWork))
	}
	if rep.Report.InstWork > 0 {
		l.instNSPerRow = append(l.instNSPerRow, inst*1e6/float64(rep.Report.InstWork))
	}
	if total > 0 {
		l.maxStepShare = append(l.maxStepShare, maxStep/total)
	}
	c := rep.Counters()
	l.cacheHits += int64(c.CacheHits)
	l.cacheMisses += int64(c.CacheMisses)
	l.sharedHits += int64(c.SharedHits)
	l.sharedMisses += int64(c.SharedMisses)
	l.sharedSaved += c.SharedTuplesSaved
	if c.SharedBytesPeak > l.sharedPeak {
		l.sharedPeak = c.SharedBytesPeak
	}
	if c.PeakReservedBytes > l.memPeak {
		l.memPeak = c.PeakReservedBytes
	}
	l.spills = append(l.spills, float64(c.SpillCount))
	l.spilledBytes = append(l.spilledBytes, float64(c.SpilledBytes))
	l.rereadBytes = append(l.rereadBytes, float64(c.SpillReReadBytes))

	// The steps' wall-clock share of the window: their sum when one runs at
	// a time, the busiest worker's total when they overlap.
	stepsWall := total
	if p := rep.Parallel; p != nil {
		if e := ms(p.Elapsed); e > 0 {
			l.speedup = append(l.speedup, total/e)
		}
		if p.TotalWork > 0 {
			l.critFrac = append(l.critFrac, float64(p.CriticalPathWork)/float64(p.TotalWork))
		}
		if len(busy) > 1 {
			var maxBusy float64
			for _, b := range busy {
				if b > maxBusy {
					maxBusy = b
				}
			}
			l.imbalance = append(l.imbalance, maxBusy/(total/float64(len(busy))))
			stepsWall = maxBusy
		}
	}
	if s.jSyncs > 0 {
		l.jBytes = append(l.jBytes, float64(s.jBytes))
		l.jBytesTotal += s.jBytes
		l.jChanges += int64(s.changes)
		if s.traced { // only a traced window's writes and syncs are timed
			l.jWriteMS = append(l.jWriteMS, s.jWriteMS)
			l.jSyncMS = append(l.jSyncMS, s.jSyncMS)
		}
	}
	l.probed(s)
	if !s.traced {
		l.bareMS = append(l.bareMS, s.windowMS)
		return
	}
	l.tracedMS = append(l.tracedMS, s.windowMS)
	self := s.windowMS - stepsWall
	if p := s.probes; p.ran {
		self -= p.statsMS + p.searchMS
		if w := rep.Report.TotalWork(); w > 0 && p.estimate > 0 {
			l.predictRatio = append(l.predictRatio, p.estimate/float64(w))
		}
	}
	l.selfMS = append(l.selfMS, self)
}

// probed keeps the timings taken around an operator window that do not
// depend on what the window did: staging, the first query, and the probes.
func (l *layerStats) probed(s windowSample) {
	if s.stageMS > 0 {
		l.stageMS = append(l.stageMS, s.stageMS)
		l.firstQueryUS = append(l.firstQueryUS, s.firstQueryUS)
	}
	if p := s.probes; p.ran {
		l.statsMS = append(l.statsMS, p.statsMS)
		l.searchMS = append(l.searchMS, p.searchMS)
		l.validateMS = append(l.validateMS, p.validateMS)
		l.estimateMS = append(l.estimateMS, p.estimateMS)
		l.cloneUS = append(l.cloneUS, p.cloneUS)
		l.digestMS = append(l.digestMS, p.digestMS)
	}
}

// ingest folds the ingester's own view of one of its windows.
func (l *layerStats) ingest(iw ingestWindow) {
	l.ingWindowMS = append(l.ingWindowMS, ms(iw.at.Sub(iw.rep.Started)))
	if in := iw.rep.Ingest; in != nil {
		l.ingBatch = append(l.ingBatch, float64(in.Changes))
		if w := iw.rep.Report.TotalWork(); in.PredictedWork > 0 && w > 0 {
			l.ingPredict = append(l.ingPredict, float64(in.PredictedWork)/float64(w))
		}
		if in.QueueDepth > l.ingQueueMax {
			l.ingQueueMax = in.QueueDepth
		}
	}
}

// probe times, one public call at a time, what the coming window will do.
func (r *runner) probe(root, seq int) probes {
	w := r.fx.w
	p := probes{ran: true}
	span := func(name string, fn func()) float64 {
		t0 := time.Now()
		fn()
		t1 := time.Now()
		r.tr.add(root, "probe."+name, seq, t0, t1, nil)
		return ms(t1.Sub(t0))
	}
	var stats cost.Stats
	var err error
	p.statsMS = span("planner.stats", func() { stats, err = w.PlanningStats() })
	if err != nil {
		r.fail("probe: planning stats: %v", err)
		return probes{}
	}
	var s strategy.Strategy
	p.searchMS = span("planner.search", func() { s, p.examined, err = search(w, r.cfg.eng.planner, stats) })
	if err != nil {
		r.fail("probe: planner: %v", err)
		return probes{}
	}
	p.validateMS = span("strategy.validate", func() { err = w.Validate(s) })
	if err != nil {
		r.fail("probe: the planner's strategy is not valid: %v", err)
	}
	p.estimateMS = span("cost.estimate", func() { p.estimate, _ = w.EstimateWork(s) })
	p.cloneUS = 1000 * span("storage.clone", func() { _ = w.Internal().Clone() })
	p.digestMS = span("warehouse.state_digest", func() { _ = w.StateDigest() })
	return p
}

// search runs the named planner's search through the planner package, which
// unlike the facade reports how many orderings it examined.
func search(w *warehouse.Warehouse, name warehouse.PlannerName, stats cost.Stats) (strategy.Strategy, int, error) {
	g, err := w.Graph()
	if err != nil {
		return nil, 0, err
	}
	c := w.Internal()
	switch name {
	case warehouse.PrunePlanner:
		res, err := planner.Prune(g, warehouse.DefaultCostModel, stats, exec.RefCounts(c))
		return res.Strategy, res.Examined, err
	case warehouse.SharedPlanner:
		res, err := planner.PruneShared(g, warehouse.DefaultCostModel, stats, exec.RefCounts(c), planner.SharedSearchOptions{
			Refs: exec.RefsOf(c),
			Sharing: planner.SharingOptions{
				Width: exec.WidthOf(c), Pairs: exec.PairsOf(c), Tuner: c.ShareTuner(),
			},
		})
		return res.Strategy, res.Examined, err
	default:
		res, err := planner.MinWork(g, stats)
		return res.Strategy, 0, err
	}
}

// stepSpans lays the window's step reports out as spans under window.run.
// The reports carry durations, not start times; steps are placed back to
// back per worker from the run's start, which keeps each span's length and
// worker exact and its position approximate.
func (r *runner) stepSpans(parent, seq int, start time.Time, rep warehouse.WindowReport) {
	next := make(map[int]time.Time)
	for _, st := range rep.Report.Steps {
		at, ok := next[st.Worker]
		if !ok {
			at = start
		}
		end := at.Add(st.Elapsed)
		r.tr.add(parent, "step["+st.Expr.String()+"]", seq, at, end, map[string]any{
			"work": st.Work, "terms": st.Terms, "worker": st.Worker, "spills": st.SpillCount,
		})
		next[st.Worker] = end
	}
}

// endProbes runs the once-per-run layer probes of a traced run.
func (r *runner) endProbes() {
	w := r.fx.w
	x := r.lay.extra

	// snapshot: the final state written and read back.
	var buf bytes.Buffer
	t0 := time.Now()
	err := w.SaveSnapshot(&buf)
	t1 := time.Now()
	if err != nil {
		r.fail("snapshot write: %v", err)
	} else {
		x["snapshot.write_ms"] = ms(t1.Sub(t0))
		x["snapshot.bytes"] = float64(buf.Len())
		restored := w.Clone()
		t2 := time.Now()
		err = restored.LoadSnapshot(bytes.NewReader(buf.Bytes()))
		t3 := time.Now()
		x["snapshot.read_ms"] = ms(t3.Sub(t2))
		r.ops++
		if err != nil || restored.StateDigest() != w.StateDigest() {
			r.fail("snapshot read back differs from the state written: %v", err)
		}
		r.tr.add(0, "snapshot.write", 0, t0, t1, nil)
		r.tr.add(0, "snapshot.read", 0, t2, t3, nil)
	}

	// sqlparse: parse and bind each text of the query mix.
	var parse []float64
	for rep := 0; rep < 50; rep++ {
		for _, k := range r.fx.queries {
			sql := k.sql
			if k.name == "plan_miss" {
				sql = fmt.Sprintf(sql, rep)
			}
			t := time.Now()
			if _, err := sqlparse.ParseQuery(sql, w.ViewSchema); err != nil {
				r.fail("parse %q: %v", sql, err)
			}
			parse = append(parse, us(time.Since(t)))
		}
	}
	x["sqlparse.parse_us"] = median(parse)
}

// planSpaceProbes are the plan-space workload's extra sweeps: search cost
// against VDAG size, and the paper's validation of the work metric across
// the strategy space of one view.
func (r *runner) planSpaceProbes() error {
	x := r.lay.extra
	sf := tpcdSF(0.001, r.smoke)
	sizes := []int{6, 7, 8}
	if r.smoke {
		sizes = []int{7} // the 40 320 orderings of 8 views take seconds at any scale
	}
	for _, n := range sizes {
		fx, err := buildTPCD(sf, r.seed, warehouse.Options{}, n-6)
		if err != nil {
			return err
		}
		if err := stage(fx.w, fx.gen.next(int(0.01*float64(fx.baseRows))+8)); err != nil {
			return err
		}
		stats, err := fx.w.PlanningStats()
		if err != nil {
			return err
		}
		for _, p := range []struct {
			key  string
			name warehouse.PlannerName
			unit float64
			max  int
		}{
			{"planner.prune_ms.v%d", warehouse.PrunePlanner, 1, 8},
			{"planner.shared_ms.v%d", warehouse.SharedPlanner, 1, 7},
			{"planner.minwork_us.v%d", warehouse.MinWorkPlanner, 1000, 8},
		} {
			if n > p.max || (p.name == warehouse.MinWorkPlanner && n != 8) {
				continue
			}
			t0 := time.Now()
			_, _, err := search(fx.w, p.name, stats)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("%s on %d views: %w", p.name, n, err)
			}
			key := fmt.Sprintf(p.key, n)
			x[key] = ms(t1.Sub(t0)) * p.unit
			r.tr.add(0, key, n, t0, t1, nil)
		}
	}
	return r.workVersusWall(sf)
}

// workVersusWall is the paper's experimental check of the linear work
// metric: execute a seeded sample of Q5's view strategies, the planner's
// pick and dual-stage from the same start state, best of three each, and
// report how well measured work explains wall-clock (R²) and what the
// planner's pick costs against the fastest strategy seen (regret).
func (r *runner) workVersusWall(sf float64) error {
	sample, best := 24, 3
	if r.smoke {
		sample, best = 4, 1
	}
	src, err := tpcd.NewWarehouse(tpcd.Config{SF: sf, Seed: r.seed, Queries: []string{tpcd.Q5}})
	if err != nil {
		return err
	}
	base := src.W
	if _, err := src.StageChanges(tpcd.Mixed(0.05, 0.05)); err != nil {
		return err
	}
	children := base.Children(tpcd.Q5)
	parts := strategy.OrderedPartitions(children)
	rng := rand.New(rand.NewSource(r.seed))
	rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	if len(parts) > sample {
		parts = parts[:sample]
	}
	var strategies []strategy.Strategy
	for _, blocks := range parts {
		strategies = append(strategies, strategy.PartitionedView(tpcd.Q5, blocks))
	}
	stats, err := exec.PlanningStats(base)
	if err != nil {
		return err
	}
	pick, err := planner.MinWorkSingle(tpcd.Q5, children, stats)
	if err != nil {
		return err
	}
	strategies = append(strategies, strategy.DualStageView(tpcd.Q5, children), pick)
	var work, wall []float64
	t0 := time.Now()
	for _, s := range strategies {
		bestMS, w := 0.0, int64(0)
		for k := 0; k < best; k++ {
			rep, err := exec.Execute(base.Clone(), s, exec.Options{Validate: true})
			if err != nil {
				return fmt.Errorf("executing %v: %w", s, err)
			}
			if d := ms(rep.Elapsed); k == 0 || d < bestMS {
				bestMS = d
			}
			w = rep.TotalWork()
		}
		work = append(work, float64(w))
		wall = append(wall, bestMS)
	}
	r.tr.add(0, "cost.work_vs_wall", 0, t0, time.Now(), map[string]any{"strategies": len(strategies)})
	minWall := wall[0]
	for _, d := range wall {
		if d < minWall {
			minWall = d
		}
	}
	r.lay.extra["cost.work_wall_r2"] = rSquared(work, wall)
	r.lay.extra["cost.plan_regret"] = wall[len(wall)-1] / minWall
	return nil
}

// during splits query latencies by whether the query overlapped a window and
// returns the ratio of the two medians; 0 when either side is empty.
func during(recs []queryRec, windows []interval) float64 {
	sort.Slice(windows, func(i, j int) bool { return windows[i].start.Before(windows[j].start) })
	var in, out []float64
	for _, q := range recs {
		if !q.ok {
			continue
		}
		// The first window ending after the query began is the only one that
		// can overlap it, windows being disjoint and sorted.
		k := sort.Search(len(windows), func(i int) bool { return windows[i].end.After(q.due) })
		if k < len(windows) && windows[k].start.Before(q.end) {
			in = append(in, q.latencyUS)
		} else {
			out = append(out, q.latencyUS)
		}
	}
	if len(in) == 0 || len(out) == 0 {
		return 0
	}
	return median(in) / median(out)
}
