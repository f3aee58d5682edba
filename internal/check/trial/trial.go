// Package trial runs one check.Point: it takes the point's catalog and stream
// of change batches through the executor, recovery, replication, the ingester
// and the query server as the point says, and asserts at every window
// (DESIGN.md, "One oracle") that
//
//	(i)   the plan of every planner — and every strategy the window journal
//	      shows an attempt of the recovery ladder began — satisfies C1–C8;
//	(ii)  the cost model over the window's exact statistics predicts every
//	      step's measured work, when no option changes Work figures;
//	(iii) every epoch a concurrent reader saw is exactly a state the serving
//	      warehouse adopted, never a blend;
//	(iv)  every adopted epoch, on the leader and on every replica, keeps its
//	      running digests, its join indexes and its derived views true;
//
// and that the committed state is recomputation's, with the installed-delta
// digests the oracle predicts and, step by step, the Work and Terms of a
// sequential run on the default engine. It is a package, not a _test file of
// internal/check, so that the tables of points kept beside the code they guard
// can hand it their points; nothing but tests imports it.
package trial

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	warehouse "repro"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/ingest"
	"repro/internal/journal"
	"repro/internal/journal/journaltest"
	"repro/internal/relation"
	"repro/internal/replicate"
	"repro/internal/serve"
)

// Tally is what the machine did for a trial beside the work the metric
// counts. A table sums it over its points to prove it exercised what it is
// there for: one that never probed an index or restarted proves nothing
// about join indexes or recovery.
type Tally struct {
	core.EngineCounters
	// Restarts counts an ingest trial's incarnations past the first.
	Restarts int
}

// Add folds o into t.
func (t *Tally) Add(o Tally) {
	t.EngineCounters.Add(o.EngineCounters)
	t.Restarts += o.Restarts
}

// Seeds is how many seeds a table runs: n, or short under -short.
func Seeds(n, short int64) int64 {
	if testing.Short() {
		return short
	}
	return n
}

// Run executes the trial and fails t, with the command that replays it, on
// the first assertion that does not hold.
func Run(t testing.TB, p check.Point) Tally {
	t.Helper()
	r := &run{TB: t, p: p, rng: rand.New(rand.NewSource(p.Seed*7919 + 17))}
	var err error
	r.kind, r.at, r.hit, err = p.FaultAt()
	r.ok(err)
	r.crashes = r.kind == "crash" || r.kind == "panic"
	switch {
	case p.Ingest && r.kind != "" && r.kind != "crash" && r.kind != "transient":
		r.Fatalf("an ingest trial takes a crash or a transient fault")
	case p.Replicas > 0 && !p.Ingest && r.crashes:
		r.Fatalf("a replicated trial takes no crash of the leader, whose journal is the shipping log")
	case p.Cut > 0 && !r.crashes:
		r.Fatalf("cut tears the journal a crash left: it needs fault=crash or fault=panic")
	case p.Ingest:
		r.stream()
	default:
		r.windows()
	}
	return r.tally
}

type run struct {
	testing.TB
	p   check.Point
	rng *rand.Rand
	// kind, at and hit are p.Fault taken apart; crashes says it kills.
	kind, at string
	hit      int
	crashes  bool
	// known is what the serving warehouse held at each epoch it adopted.
	known map[uint64]check.State
	// reads is what the readers last stopped saw, reader by reader.
	reads [][]read
	tally Tally
}

// Every failure ends with the command that replays the trial alone.
func (r *run) Fatalf(format string, args ...any) {
	r.Helper()
	r.TB.Fatalf(format+"\nreplay: go test ./internal/check -run TestTrials -check.point='%s'", append(args, r.p)...)
}

func (r *run) Errorf(format string, args ...any) {
	r.Helper()
	r.TB.Errorf(format+"\nreplay: go test ./internal/check -run TestTrials -check.point='%s'", append(args, r.p)...)
}

func (r *run) Fatal(args ...any) { r.Helper(); r.Fatalf("%s", fmt.Sprint(args...)) }
func (r *run) Error(args ...any) { r.Helper(); r.Errorf("%s", fmt.Sprint(args...)) }

func (r *run) ok(err error) {
	if err != nil {
		r.Helper()
		r.Fatal(err)
	}
}

func (r *run) build() *warehouse.Warehouse { return check.BuildCatalog(r, r.p.Catalog, r.p.Seed) }

// configure sets the point's engine options on a warehouse it built, before
// its first use.
func (r *run) configure(w *warehouse.Warehouse) *warehouse.Warehouse {
	w.Internal().SetOptions(core.Options{SkipEmptyDeltas: r.p.Skip})
	return w
}

func (r *run) options() warehouse.WindowOptions {
	return warehouse.WindowOptions{Planner: warehouse.PlannerName(r.p.Planner), Mode: r.p.Mode, Workers: r.p.Workers}
}

func (r *run) streamLen() int { return max(1, r.p.Windows) }

// adopted records the state w serves as one it adopted, after checking (iv).
func (r *run) adopted(w *warehouse.Warehouse, window ...warehouse.Report) check.State {
	if err := check.Invariants(w); err != nil {
		r.Errorf("epoch %d: %v", w.Epoch(), err)
	}
	s := check.Capture(w, window...)
	r.known[s.Epoch] = s
	return s
}

// strategy checks (i) on what every planner makes of the staged batch and
// returns the strategy the point's planner will run.
func (r *run) strategy(w *warehouse.Warehouse) warehouse.Strategy {
	plans := make(map[string]warehouse.Strategy)
	for _, name := range warehouse.Planners {
		plan, err := w.Plan(name)
		r.ok(err)
		plans[string(name)] = plan.Strategy
	}
	for name, s := range plans {
		if err := w.Validate(s); err != nil {
			r.Fatalf("planner %s made a strategy that breaks C1–C8: %v\nstrategy: %s", name, err, s)
		}
	}
	s, ok := plans[cmp.Or(r.p.Planner, string(warehouse.MinWorkPlanner))]
	if !ok {
		r.Fatalf("no planner %q", r.p.Planner)
	}
	return s
}

// reference runs s over w's staged batch on a clone — sequentially, on the
// default engine but for SkipEmptyDeltas — and holds the outcome to the
// oracle and, (ii), every step's work to the cost model's prediction. It
// executes s in place, not as a window: a window's ladder would recompute
// past an incremental failure and hide it.
func (r *run) reference(w *warehouse.Warehouse, s warehouse.Strategy, want check.State) warehouse.Report {
	ref := w.Clone()
	ref.Internal().SetOptions(core.Options{SkipEmptyDeltas: r.p.Skip})
	rep, err := exec.Execute(ref.Internal(), s, exec.Options{Validate: true})
	r.ok(err)
	if err := check.Diff(want, check.Capture(ref, rep)); err != nil {
		r.Fatalf("a sequential run on the default engine differs from recomputation: %v\nstrategy: %s", err, s)
	}
	if r.p.Skip {
		return rep
	}
	stats, err := exec.ExactStats(w.Internal(), ref.Internal())
	r.ok(err)
	sim, err := cost.Simulate(cost.DefaultModel, stats, exec.RefCounts(w.Internal()), s)
	r.ok(err)
	for i, step := range rep.Steps {
		if sim.PerExpr[i] != float64(step.Work) {
			r.Fatalf("step %d %s measured work %d, the cost model over exact statistics predicts %v\nstrategy: %s", i, step.Expr, step.Work, sim.PerExpr[i], s)
		}
	}
	return rep
}

// sameSteps holds a leg to the reference run step by step — caches, indexes
// and scheduling change what the machine does, never what the metric
// counts or what is installed — and tallies what the machine did.
func (r *run) sameSteps(ref, got warehouse.Report) {
	if len(got.Steps) != len(ref.Steps) {
		r.Fatalf("%d steps, the reference run has %d", len(got.Steps), len(ref.Steps))
	}
	for i, step := range got.Steps {
		if want := ref.Steps[i]; step.Expr.Key() != want.Expr.Key() || step.Work != want.Work || step.Terms != want.Terms || step.Digest != want.Digest {
			r.Fatalf("step %d %s: work=%d terms=%d digest=%016x, the reference run has %s work=%d terms=%d digest=%016x",
				i, step.Expr, step.Work, step.Terms, step.Digest, want.Expr, want.Work, want.Terms, want.Digest)
		}
		r.tally.EngineCounters.Add(step.EngineCounters)
	}
}

// windows is the trial of a stream staged and run window by window.
func (r *run) windows() {
	p, ctx := r.p, context.Background()
	w := r.configure(r.build())
	r.known = make(map[uint64]check.State)
	var cfg serve.Config
	var followers []*follower
	if p.Replicas > 0 {
		leader := replicate.NewLeader(w)
		hs := httptest.NewServer(leader.Handler())
		defer hs.Close()
		cfg.WindowJournal = leader.Journal()
		for i := 0; i < p.Replicas; i++ {
			followers = append(followers, r.follow(hs, i, false))
		}
	}
	var jpath string
	if r.crashes {
		jpath = filepath.Join(r.TempDir(), "window.journal")
		j, err := warehouse.OpenJournal(jpath)
		r.ok(err)
		defer j.Close()
		cfg.WindowJournal = j
	}
	srv := serve.New(w, cfg)
	defer srv.Close(ctx)
	r.adopted(w)

	for win := 1; win <= r.streamLen(); win++ {
		pre := r.known[w.Epoch()]
		kind := "" // the fault strikes the last window
		var snap bytes.Buffer
		if win == r.streamLen() {
			if kind = r.kind; r.crashes {
				r.ok(w.SaveSnapshot(&snap))
			}
		}
		check.Stage(r, w, r.rng)
		want := check.Oracle(r, w)
		s := r.strategy(w)
		ref := r.reference(w, s, want)
		stop := r.readers(srv)

		opts, inj := r.options(), faults.New(p.Seed)
		hit := r.hit
		if r.at == "step" {
			hit = 1 + (hit-1)%len(s)
		}
		var rep warehouse.WindowReport
		var err error
		switch kind {
		case "deadline":
			opts.Timeout = time.Nanosecond
			if _, err := srv.RunWindow(ctx, opts); !errors.Is(err, warehouse.ErrWindowAborted) {
				r.Fatalf("window %d under a nanosecond deadline returned %v", win, err)
			}
			r.unchanged(w, pre, "a window aborted by its deadline")
			rep, err = srv.RunWindow(ctx, r.options())
		case "transient":
			// Retried in the mode it ran in: whatever steps the failure
			// cancelled, the scheduler reports the fault, not their echo.
			inj.FailAt(r.at, hit)
			opts.Faults = inj
			if rep, err = srv.RunWindow(ctx, opts); err == nil && (rep.Attempts != 2 || rep.FellBackSequential) {
				r.Fatalf("window %d: %d attempts (sequential fallback %v) around one transient fault at %s@%d", win, rep.Attempts, rep.FellBackSequential, r.at, hit)
			}
		case "persistent":
			inj.FailTimes(r.at, 1<<30)
			opts.Faults = inj
			if rep, err = srv.RunWindow(ctx, opts); err == nil && !rep.Recomputed {
				r.Fatalf("window %d committed incrementally although every hit of %s fails", win, r.at)
			}
		case "crash", "panic":
			if kind == "panic" {
				inj.PanicCrashAt(r.at, hit)
			} else {
				inj.CrashAt(r.at, hit)
			}
			opts.Faults = inj
			if _, err := srv.RunWindow(ctx, opts); err == nil {
				r.Fatalf("window %d: the crash at %s@%d did not fire", win, r.at, hit)
			}
			r.unchanged(w, pre, "a window that crashed")
			if !cfg.WindowJournal.NeedsRecovery() {
				r.Fatalf("window %d: the journal of a crashed window is not in flight", win)
			}
			stop()
			r.checkReads(w) // before the restart forgets the epochs they name
			w, rep, err = r.restart(jpath, &snap)
		default:
			rep, err = srv.RunWindow(ctx, opts)
		}
		if err != nil {
			r.Fatalf("window %d: %v\nstrategy: %s", win, err, s)
		}
		stop()

		var post check.State
		if rep.Recomputed {
			post = r.adopted(w)
		} else {
			post = r.adopted(w, rep.Report)
			r.sameSteps(ref, rep.Report)
		}
		if err := check.Diff(want, post); err != nil {
			r.Fatalf("window %d committed a state that differs from recomputation: %v\nstrategy: %s", win, err, s)
		}
		if rep.Recovered {
			r.journaledOnce(jpath, w, ref)
		} else if r.checkReads(w); post.Epoch != pre.Epoch+1 {
			r.Fatalf("window %d took epoch %d to %d", win, pre.Epoch, post.Epoch)
		}
		for i, f := range followers {
			kill := p.Kill == win && i == p.Kill%len(followers)
			if p.Slow && len(followers) > 1 && i == len(followers)-1 && win%2 == 1 && win < r.streamLen() && !kill {
				continue // the slow follower sits this round out
			}
			if kill {
				followers[i] = r.kill(f, i)
			}
			r.caughtUp(followers[i], i, w)
		}
	}
	(&replicas{r: r, followers: followers}).finish(w)
}

// unchanged checks that a failed window left the serving epoch alone.
func (r *run) unchanged(w *warehouse.Warehouse, pre check.State, what string) {
	got := check.Capture(w)
	if err := check.Diff(pre, got); err != nil || got.Epoch != pre.Epoch {
		r.Fatalf("%s moved the serving state (epoch %d, was %d): %v", what, got.Epoch, pre.Epoch, err)
	}
}

// restart is the process restart after a crash: the catalog is rebuilt from
// the seed — on the default engine, whatever engine crashed — the pre-window
// snapshot restored, the journal reopened (after the point's cut of its
// unflushed tail, never into the begin record) and its window recovered.
func (r *run) restart(jpath string, snap *bytes.Buffer) (*warehouse.Warehouse, warehouse.WindowReport, error) {
	if r.p.Cut > 0 {
		image, err := os.ReadFile(jpath)
		r.ok(err)
		begin := 0 // where the last begin record ends
		_, _ = journal.Scan(image, func(typ byte, _ []byte, end int) error {
			if typ == journal.TypeBegin {
				begin = end
			}
			return nil
		})
		r.ok(os.Truncate(jpath, int64(max(begin, len(image)-r.p.Cut))))
	}
	fresh := r.build()
	r.ok(fresh.LoadSnapshot(snap))
	j, err := warehouse.OpenJournal(jpath)
	r.ok(err)
	defer j.Close()
	if !j.NeedsRecovery() {
		r.Fatalf("the reopened journal lost its in-flight window")
	}
	rep, err := fresh.Recover(j)
	if err == nil && j.NeedsRecovery() {
		r.Fatalf("the journal is still in flight after recovery")
	}
	r.known = make(map[uint64]check.State) // a new process numbers its own epochs
	return fresh, rep, err
}

// readLog parses the image of a log and checks (i) on every strategy an
// attempt began — the recovery ladder's degraded attempts included.
func (r *run) readLog(image []byte, w *warehouse.Warehouse) journal.Log {
	lg, err := journal.ReadLog(bytes.NewReader(image))
	r.ok(err)
	for _, wl := range lg.Windows {
		if err := w.Validate(wl.Begin.Strategy); err != nil {
			r.Fatalf("journaled window %d began a strategy that breaks C1–C8: %v", wl.Begin.Seq, err)
		}
	}
	return lg
}

// journaledOnce checks the journal of a stream whose last window crashed and
// was recovered: every window committed once, the last with one record per
// step and the uninterrupted run's installed-delta digests.
func (r *run) journaledOnce(jpath string, w *warehouse.Warehouse, ref warehouse.Report) {
	image, err := os.ReadFile(jpath)
	r.ok(err)
	lg := r.readLog(image, w)
	if lg.InFlight() != nil || lg.CommittedCount() != r.streamLen() {
		r.Fatalf("the recovered journal holds %d committed windows of %d, in flight: %v", lg.CommittedCount(), r.streamLen(), lg.InFlight() != nil)
	}
	steps := lg.Windows[len(lg.Windows)-1].Steps
	seen := make(map[int]bool)
	for _, sr := range steps {
		if seen[sr.Index] || sr.Index >= len(ref.Steps) || sr.Digest != ref.Steps[sr.Index].Digest {
			r.Fatalf("the recovered journal records step %d with digest %016x: a duplicate, or not the uninterrupted run's", sr.Index, sr.Digest)
		}
		seen[sr.Index] = true
	}
	if len(steps) != len(ref.Steps) {
		r.Fatalf("the recovered journal holds %d step records of %d", len(steps), len(ref.Steps))
	}
}

// follower is a replica and the injector that can disconnect or kill it.
type follower struct {
	*replicate.Follower
	hs  *httptest.Server // the leader's
	inj *faults.Injector
	// dropping says inj disconnects the follower a few times.
	dropping bool
	// replayed is what the follower held after each window it replayed
	// since replays last looked.
	replayed []check.State
}

// follow builds follower i from the sources.
func (r *run) follow(hs *httptest.Server, i int, rebuilt bool) *follower {
	fw := r.build()
	f := &follower{hs: hs, inj: faults.New(r.p.Seed + int64(i)), dropping: r.p.Drop && i == 0 && !rebuilt}
	if f.dropping {
		f.inj.FailTimes("fetch", 1+r.rng.Intn(3))
	}
	f.Follower = replicate.NewFollower(fw, replicate.FollowerConfig{
		Leader: hs.URL, Client: hs.Client(), Faults: f.inj, Sleep: func(time.Duration) {},
		OnApply: func(rep warehouse.WindowReport) {
			f.replayed = append(f.replayed, check.Capture(fw, rep.Report))
			if err := check.Invariants(fw); err != nil {
				r.Errorf("follower %d at epoch %d: %v", i, fw.Epoch(), err)
			}
		},
	})
	return f
}

// replays checks (iii) and (iv) on a replica: whatever follower i replayed
// landed, at each epoch, on the state — and the installed-delta digests — the
// leader committed that epoch with. It runs where the leader adopts nothing.
func (r *run) replays(f *follower, i int) {
	for _, got := range f.replayed {
		if want, ok := r.known[got.Epoch]; !ok {
			r.Errorf("follower %d replayed into epoch %d, which the leader never committed", i, got.Epoch)
		} else if err := check.Diff(want, got); err != nil {
			r.Errorf("follower %d at epoch %d differs from the leader: %v", i, got.Epoch, err)
		}
	}
	f.replayed = nil
}

// kill crashes the follower in the middle of its next replay — it must die
// with its state intact and refuse further polls — and returns the one
// rebuilt in its place, which catches up from offset 0.
func (r *run) kill(f *follower, i int) *follower {
	ctx := context.Background()
	before := check.Capture(f.Warehouse())
	f.inj.CrashAt("apply", f.inj.Hits("apply")+1)
	if err := f.CatchUp(ctx); !errors.Is(err, replicate.ErrFollowerDead) {
		r.Fatalf("follower %d armed to crash caught up with %v", i, err)
	}
	r.unchanged(f.Warehouse(), before, "a replay that crashed")
	if _, err := f.Poll(ctx); !errors.Is(err, replicate.ErrFollowerDead) || f.Stats().Dead == "" {
		r.Fatalf("dead follower %d accepted a poll (%v) or its stats hide the cause (%q)", i, err, f.Stats().Dead)
	}
	return r.follow(f.hs, i, true)
}

// caughtUp brings the follower to the leader's epoch and checks that they
// then hold the same state and answer an ordered query row for row.
func (r *run) caughtUp(f *follower, i int, leader *warehouse.Warehouse) {
	// A follower that can make no progress polls for ever: bound it.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.CatchUp(ctx); err != nil {
		r.Fatalf("follower %d: catching up: %v", i, err)
	}
	r.replays(f, i)
	got := check.Capture(f.Warehouse())
	if err := check.Diff(r.known[leader.Epoch()], got); err != nil || got.Epoch != leader.Epoch() {
		r.Fatalf("follower %d caught up to epoch %d, the leader serves %d: %v", i, got.Epoch, leader.Epoch(), err)
	}
	sql, _, _ := orderedQuery(r.rng, shapeOf(leader))
	sql += fmt.Sprintf(" LIMIT %d OFFSET %d", r.rng.Intn(20), r.rng.Intn(4))
	lrows, lerr := leader.Query(sql)
	frows, ferr := f.Warehouse().Query(sql)
	if lerr != nil || ferr != nil || fmt.Sprint(lrows) != fmt.Sprint(frows) {
		r.Fatalf("follower %d answers %s with %v (%v), the leader with %v (%v)", i, sql, frows, ferr, lrows, lerr)
	}
}

// read is one observation of a reader: an epoch whole under one pin, or —
// view set — that one view of it, as the query server answered.
type read struct {
	state check.State
	view  string
}

// view is a view's name and columns, read once for the readers to draw
// queries from: the catalog is not for concurrent reading.
type view struct {
	name   string
	schema warehouse.Schema
}

func shapeOf(w *warehouse.Warehouse) []view {
	var out []view
	for _, name := range w.Views() {
		schema, _ := w.ViewSchema(name)
		out = append(out, view{name, schema})
	}
	return out
}

// orderedQuery draws SELECT <every column> FROM <a view> ORDER BY <a column,
// by name or 1-based ordinal, ASC or DESC>, and returns it with the view and
// the comparison its result must be sorted by.
func orderedQuery(rng *rand.Rand, views []view) (sql, name string, order func(a, b warehouse.Tuple) int) {
	v := views[rng.Intn(len(views))]
	var cols []string
	for _, c := range v.schema {
		cols = append(cols, c.Name)
	}
	col, sign := rng.Intn(len(cols)), 1
	by := []string{cols[col], fmt.Sprint(col + 1)}[rng.Intn(2)]
	if rng.Intn(2) == 0 {
		by, sign = by+" DESC", -1
	}
	sql = fmt.Sprintf("SELECT %s FROM %s ORDER BY %s", strings.Join(cols, ", "), v.name, by)
	return sql, v.name, func(a, b warehouse.Tuple) int { return sign * relation.Compare(a[col], b[col]) }
}

// readers starts the point's readers against the served warehouse; the
// function returned stops them and leaves what they saw in r.reads. A read
// pins the serving epoch and captures it whole; every eighth instead sends an
// ordered query through the server's queue, whose answer must be sorted and —
// checked with the rest — the bag its epoch holds of that view.
func (r *run) readers(srv *serve.Server) (stop func()) {
	w, views := srv.Warehouse(), shapeOf(srv.Warehouse())
	done := make(chan struct{})
	var wg sync.WaitGroup
	r.reads = make([][]read, r.p.Readers)
	for g := range r.reads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.p.Seed*1000 + int64(g)))
			for n := 0; n < 200; n++ {
				select {
				case <-done:
					return
				default:
				}
				if n%8 != 4 {
					r.reads[g] = append(r.reads[g], read{state: check.Capture(w)})
					continue
				}
				sql, name, order := orderedQuery(rng, views)
				res, err := srv.Query(context.Background(), sql)
				if err != nil || !slices.IsSortedFunc(res.Rows, order) {
					r.Errorf("reader %d: %s answered %v (%v): out of order", g, sql, res.Rows, err)
					return
				}
				counts := make(map[string]int) // duplicates arrive expanded
				for _, row := range res.Rows {
					counts[fmt.Sprint(row)]++
				}
				var bag []string
				for row, n := range counts {
					bag = append(bag, fmt.Sprintf("%s x%d", row, n))
				}
				r.reads[g] = append(r.reads[g], read{check.State{Epoch: res.Epoch, Bags: map[string][]string{name: sorted(bag)}}, name})
			}
			<-done
		}()
	}
	return sync.OnceFunc(func() { close(done); wg.Wait() })
}

func sorted(lines []string) []string { slices.Sort(lines); return lines }

// checkReads is (iii): every read is, whole, the state the serving
// warehouse adopted at the epoch the read names, and no reader went back in
// time. With the readers gone only the serving epoch is alive.
func (r *run) checkReads(w *warehouse.Warehouse) {
	for g, reads := range r.reads {
		var last uint64
		for i, rd := range reads {
			want, ok := r.known[rd.state.Epoch]
			if !ok || rd.state.Epoch < last {
				r.Fatalf("reader %d read %d saw epoch %d after %d: never adopted, or back in time", g, i, rd.state.Epoch, last)
			}
			if last = rd.state.Epoch; rd.view == "" {
				if err := check.Diff(want, rd.state); err != nil {
					r.Fatalf("reader %d read %d saw a blend at epoch %d: %v", g, i, rd.state.Epoch, err)
				}
			} else if bag := slices.Clone(want.Bags[rd.view]); !slices.Equal(sorted(bag), rd.state.Bags[rd.view]) {
				r.Fatalf("reader %d read %d: the query server answered %s at epoch %d with %v, the epoch holds %v", g, i, rd.view, rd.state.Epoch, rd.state.Bags[rd.view], bag)
			}
		}
	}
	if live := w.LiveEpochs(); len(r.reads) > 0 && live != 1 {
		r.Fatalf("%d live epochs after the readers unpinned", live)
	}
	r.reads = nil
}

// stream is the trial of a stream delivered through the continuous ingester
// over the one log. An incarnation runs until the stream is in or a crash
// kills it, leaving the log as a dead process does. Without replicas the log
// is a journal file: the next incarnation rebuilds the catalog and restores it
// from the file, torn as a power loss leaves it. With replicas it is the
// leader's shipped log, which followers poll as the producer's changes are
// accepted, and a dead leader takes with it what it never shipped: the follower that holds the
// most of the log is promoted, the others follow it, and the next incarnation
// ingests on it. Either way the new ingester requeues what the log holds that
// no committed window installs, and the producer offers again every change
// the log does not hold. However the batches were cut, the stream must be in
// exactly once: the state is the recomputation of all of it, and the log
// holds one accept per change, each installed.
func (r *run) stream() {
	p, ctx := r.p, context.Background()
	// The stream is drawn round by round from a warehouse that installs each
	// round before the next is drawn, so every delete hits a row that exists.
	var changes []check.Change
	one, all := r.build(), r.build()
	for i := 0; i < r.streamLen(); i++ {
		changes = append(changes, check.Stage(r, one, r.rng)...)
		_, err := one.RunWindowOpts(warehouse.WindowOptions{})
		r.ok(err)
	}
	for _, c := range changes {
		r.ok(all.StageDelta(c.View, c.Delta))
	}
	want := check.Oracle(r, all)
	want.InstDigests = nil // of one window: the ingester cuts its own

	wjPath := filepath.Join(r.TempDir(), "window.journal")
	inj := faults.New(p.Seed)
	switch r.kind {
	case "crash":
		inj.CrashAt(r.at, r.hit)
	case "transient":
		inj.FailAt(r.at, r.hit)
	}
	r.known = make(map[uint64]check.State)
	var rs *replicas
	image := func() []byte {
		if rs != nil {
			image, _, _ := rs.leader.Log().Chunk(0, 0)
			return image
		}
		image, err := os.ReadFile(wjPath)
		r.ok(err)
		return image
	}
	if p.Replicas > 0 {
		rs = r.replicas()
		defer rs.hs.Close()
	}
	for incarnation := 1; ; incarnation++ {
		if incarnation > 6 {
			r.Fatalf("the stream is not in after 6 incarnations")
		}
		var w *warehouse.Warehouse
		var j *warehouse.Journal
		if rs != nil {
			w, j = rs.lead(incarnation)
		} else {
			w = r.configure(r.build())
			var err error
			j, err = warehouse.OpenJournal(wjPath)
			r.ok(err)
			err = w.Restore(j)
			r.ok(err)
			r.known = make(map[uint64]check.State) // a new process numbers its own epochs
		}
		r.adopted(w)
		held := r.readLog(image(), w)
		next := int(held.LastAccept()) // the first change the log does not hold
		cfg := ingest.Config{
			Warehouse: w, Journal: j, Tick: 500 * time.Microsecond,
			Planner: warehouse.PlannerName(p.Planner), Mode: p.Mode, Workers: p.Workers,
			OnWindow: func(warehouse.WindowReport) { r.adopted(w) },
		}
		if incarnation == 1 {
			cfg.Faults = inj
		}
		ing, err := ingest.New(cfg)
		r.ok(err)
		srv := serve.New(w, serve.Config{})
		srv.AttachIngest(ing)
		stop := r.readers(srv)
		ran := make(chan error, 1)
		go func() { ran <- ing.Run(ctx) }()
		for dead := false; next < len(changes) && !dead; {
			switch err := ing.Submit(changes[next].View, changes[next].Delta); {
			case err == nil:
				next++
				rs.poll()
				// Every third change waits for the window loop to cut the
				// queue, so that cuts, stagings and windows are many and the
				// faults at them fire.
				for next%3 == 0 && ing.Stats().QueueDepth > 0 && ing.Stats().Err == "" {
					time.Sleep(100 * time.Microsecond)
				}
			case errors.Is(err, ingest.ErrIngestOverloaded):
				time.Sleep(time.Millisecond)
			case faults.IsTransient(err) && !errors.Is(err, ingest.ErrIngestClosed):
				// Not accepted: the producer offers the same change again.
			default:
				dead = true // crash-class, or closed under us
			}
		}
		closeErr := ing.Close(ctx)
		runErr := <-ran
		stop()
		srv.Close(ctx)
		if rs == nil {
			j.Close()
		}
		r.checkReads(w)
		if closeErr != nil && !faults.IsCrash(closeErr) && !inj.Crashed() {
			r.Fatalf("incarnation %d closed with %v, and nothing crashed", incarnation, closeErr)
		}
		if closeErr != nil || runErr != nil || next < len(changes) {
			r.tally.Restarts++
			if rs == nil {
				// What power loss leaves: half a frame at the end of the
				// journal, which the next incarnation's open must cut off.
				r.ok(journaltest.TearTail(wjPath))
			}
			continue
		}
		if err := check.Diff(want, check.Capture(w)); err != nil {
			r.Fatalf("after %d incarnation(s) the warehouse differs from the recomputation of the stream: %v", incarnation, err)
		}
		lg := r.readLog(image(), w)
		inFlight := lg.InFlight() != nil || rs != nil && rs.leader.Log().Len() != rs.leader.Log().StableLen()
		if pending := len(lg.Pending()); inFlight || lg.Truncated || pending != 0 || lg.LastAccept() != uint64(len(changes)) {
			r.Fatalf("after a clean close the log is in flight (%v) or torn (%v), or it holds %d accepts for %d changes, %d of them installed by no committed window", inFlight, lg.Truncated, lg.LastAccept(), len(changes), pending)
		}
		rs.finish(w)
		return
	}
}

// replicas is the replica set of an ingest trial: the leader that ingests,
// and its followers.
type replicas struct {
	r         *run
	leader    *replicate.Leader
	hs        *httptest.Server // the leader's
	followers []*follower
	// victim is the follower Kill names, which fetches nothing until the
	// stream is in and then dies in the middle of its first replay.
	victim *follower
	// polls counts poll's calls since the leader began.
	polls int
}

func (r *run) replicas() *replicas {
	rs := &replicas{r: r, leader: replicate.NewLeader(r.configure(r.build()))}
	rs.hs = httptest.NewServer(rs.leader.Handler())
	for i := 0; i < r.p.Replicas; i++ {
		rs.followers = append(rs.followers, r.follow(rs.hs, i, false))
	}
	if r.p.Kill > 0 {
		rs.victim = rs.followers[r.p.Kill%len(rs.followers)]
	}
	return rs
}

// lead returns the warehouse and the journal an incarnation ingests on: the
// first leader's, and after a leader died, those of the follower promoted in
// its place. That follower must hold exactly the state the dead leader
// committed at its epoch; the dead leader's later epochs never happened.
func (rs *replicas) lead(incarnation int) (*warehouse.Warehouse, *warehouse.Journal) {
	r := rs.r
	if incarnation > 1 {
		for i, f := range rs.followers {
			r.replays(f, i)
		}
		rs.hs.Close()
		var live []*replicate.Follower
		for _, f := range rs.followers {
			live = append(live, f.Follower)
		}
		winner, err := replicate.Elect(live...)
		r.ok(err)
		if rs.leader, err = winner.Promote(); err != nil {
			r.Fatalf("promoting the follower at offset %d: %v", winner.HWM(), err)
		}
		rs.hs = httptest.NewServer(rs.leader.Handler())
		var rest []*follower
		for _, f := range rs.followers {
			if f.Follower == winner {
				continue
			}
			f.Redirect(rs.hs.URL)
			f.hs = rs.hs
			rest = append(rest, f)
		}
		rs.followers = rest
		w := rs.leader.Warehouse()
		if err := check.Diff(r.known[w.Epoch()], check.Capture(w)); err != nil {
			r.Fatalf("the follower promoted at epoch %d does not hold what the leader committed there: %v", w.Epoch(), err)
		}
		for epoch := range r.known {
			if epoch > w.Epoch() {
				delete(r.known, epoch)
			}
		}
	}
	rs.polls = 0
	return rs.leader.Warehouse(), rs.leader.Journal()
}

// poll lets the followers fetch from the leader as the producer's changes are
// accepted — the i-th at every (i+1)-th change, the slow one and the victim
// never — so that a leader that dies leaves them holding logs of different
// lengths, with accepts that no window they hold installs.
func (rs *replicas) poll() {
	if rs == nil {
		return
	}
	rs.polls++
	for i, f := range rs.followers {
		slow := rs.r.p.Slow && len(rs.followers) > 1 && i == len(rs.followers)-1
		if f != rs.victim && !slow && rs.polls%(i+1) == 0 {
			_, _ = f.Poll(context.Background()) // a failed fetch is fetched again later
		}
	}
}

// finish kills the victim, if it is a follower still, and catches every
// follower up with the leader, whose warehouse is w.
func (rs *replicas) finish(w *warehouse.Warehouse) {
	if rs == nil {
		return
	}
	for i, f := range rs.followers {
		if f == rs.victim {
			rs.followers[i] = rs.r.kill(f, i)
		}
		rs.r.caughtUp(rs.followers[i], i, w)
		if lag := rs.followers[i].Lag(); lag.Epochs != 0 || lag.Bytes != 0 {
			rs.r.Errorf("follower %d: residual lag %+v", i, lag)
		}
		if f.dropping && f.Stats().ReconnectCount == 0 {
			rs.r.Errorf("follower %d's injected disconnects never registered", i)
		}
	}
}
