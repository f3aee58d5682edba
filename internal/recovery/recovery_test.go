package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/relation"
	"repro/internal/strategy"
)

var (
	schemaR = relation.Schema{{Name: "a", Kind: relation.KindInt}, {Name: "b", Kind: relation.KindInt}}
	schemaS = relation.Schema{{Name: "b", Kind: relation.KindInt}, {Name: "c", Kind: relation.KindInt}}
)

func intRow(vals ...int64) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		t[i] = relation.NewInt(v)
	}
	return t
}

// newFixture builds R, S, J = R ⋈ S, A = Γ(J), loads data, and stages a
// change batch; returns the warehouse and a dual-stage strategy.
func newFixture(t testing.TB) (*core.Warehouse, strategy.Strategy) {
	t.Helper()
	w := buildPristine(t)
	dr := delta.New(schemaR)
	dr.Add(intRow(4, 20), 1)
	dr.Add(intRow(1, 10), -1)
	ds := delta.New(schemaS)
	ds.Add(intRow(10, 300), 1)
	return w, stageBatch(t, w, dr, ds)
}

// stageBatch stages one delta each on R and S and returns the dual-stage
// strategy that installs them.
func stageBatch(t testing.TB, w *core.Warehouse, dr, ds *delta.Delta) strategy.Strategy {
	t.Helper()
	if err := w.StageDelta("R", dr); err != nil {
		t.Fatal(err)
	}
	if err := w.StageDelta("S", ds); err != nil {
		t.Fatal(err)
	}
	return strategy.DualStageVDAG(w.Graph())
}

func bags(t testing.TB, w *core.Warehouse) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, name := range w.ViewNames() {
		var b bytes.Buffer
		for _, r := range w.MustView(name).SortedRows() {
			fmt.Fprintf(&b, "%v x%d;", r.Tuple, r.Count)
		}
		out[name] = b.String()
	}
	return out
}

func sameBags(t testing.TB, what string, ref, got map[string]string) {
	t.Helper()
	for v := range ref {
		if ref[v] != got[v] {
			t.Fatalf("%s: %s diverged:\n got %s\nwant %s", what, v, got[v], ref[v])
		}
	}
}

func readLog(t testing.TB, buf *bytes.Buffer) journal.Log {
	t.Helper()
	lg, err := journal.ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return lg
}

// instDigestsOf extracts the last journal window's Inst-step digests by
// strategy index.
func instDigestsOf(t *testing.T, buf *bytes.Buffer) map[int]uint64 {
	t.Helper()
	lg := readLog(t, buf)
	if len(lg.Windows) == 0 {
		t.Fatal("journal has no windows")
	}
	out := make(map[int]uint64)
	for _, sr := range lg.Windows[len(lg.Windows)-1].Steps {
		out[sr.Index] = sr.Digest
	}
	return out
}

// refRun executes the strategy uninterrupted on a clone and returns the
// resulting bags.
func refRun(t *testing.T, w *core.Warehouse, s strategy.Strategy) map[string]string {
	t.Helper()
	res, err := Run(w, s, Options{Mode: exec.ModeSequential, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	return bags(t, res.Core)
}

func TestRunCommitsAndAdopts(t *testing.T) {
	w, s := newFixture(t)
	before := bags(t, w)
	var buf bytes.Buffer
	res, err := Run(w, s, Options{
		Journal: journal.NewWriter(&buf), Seq: 7, Planner: "dual", Mode: exec.ModeDAG,
		Workers: 4, Validate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The original warehouse is untouched; the clone carries the window.
	sameBags(t, "original", before, bags(t, w))
	if res.Core == w {
		t.Fatal("Run returned the input warehouse, not a clone")
	}
	if err := res.Core.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	lg := readLog(t, &buf)
	if lg.CommittedCount() != 1 || lg.InFlight() != nil {
		t.Fatalf("journal shape: committed=%d inflight=%v", lg.CommittedCount(), lg.InFlight() != nil)
	}
	wl := lg.Windows[0]
	if wl.Begin.Seq != 7 || wl.Begin.Planner != "dual" || wl.Begin.Mode != "dag" {
		t.Fatalf("begin record: %+v", wl.Begin)
	}
	if len(wl.Steps) != len(s) {
		t.Fatalf("%d journaled steps, strategy has %d", len(wl.Steps), len(s))
	}
	if wl.Commit.TotalWork != res.Report.TotalWork() {
		t.Fatalf("journaled work %d, report %d", wl.Commit.TotalWork, res.Report.TotalWork())
	}
}

// TestTransientRetryJournalShape: a transient fault in each of the first two
// attempts uses both in-place retries. Each failed attempt is a journal window
// of its own, closed by an abort, and the third commits under the same
// sequence number after the two pauses (1 ms, then 2 ms).
func TestTransientRetryJournalShape(t *testing.T) {
	w, s := newFixture(t)
	want := refRun(t, w, s)
	inj := faults.New(1)
	inj.FailAt("step", 2) // the second step of the first attempt
	inj.FailAt("step", 3) // the first step of the second
	var buf bytes.Buffer
	t0 := time.Now()
	res, err := Run(w, s, Options{
		Journal: journal.NewWriter(&buf), Seq: 3, Mode: exec.ModeSequential, Validate: true, Faults: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took < 3*firstPause {
		t.Fatalf("two retries took %v, less than their pauses", took)
	}
	if res.Attempts != 3 || res.FellBackSequential || res.Recomputed {
		t.Fatalf("attempts = %d (sequential %v, recomputed %v), want 3 in place", res.Attempts, res.FellBackSequential, res.Recomputed)
	}
	sameBags(t, "retried window", want, bags(t, res.Core))
	lg := readLog(t, &buf)
	if len(lg.Windows) != 3 {
		t.Fatalf("%d journal windows, want 3 (abort, abort, commit)", len(lg.Windows))
	}
	for i, steps := range []int{1, 0} {
		if wl := lg.Windows[i]; wl.Abort == nil || wl.Committed() || len(wl.Steps) != steps {
			t.Fatalf("attempt %d: aborted=%v, %d steps journaled; want an abort after %d", i+1, wl.Abort != nil, len(wl.Steps), steps)
		}
	}
	if !lg.Windows[2].Committed() {
		t.Fatal("third attempt not committed")
	}
	for _, wl := range lg.Windows {
		if wl.Begin.Seq != 3 {
			t.Fatal("retry attempts must share the window sequence number")
		}
	}
}

// TestSequentialFallback: a DAG window whose first three attempts fail — the
// first and both retries — gets one sequential attempt, which commits. One
// worker keeps each attempt to one hit of the fault point.
func TestSequentialFallback(t *testing.T) {
	w, s := newFixture(t)
	want := refRun(t, w, s)
	inj := faults.New(1)
	inj.FailTimes("step", 1+maxRetries)
	res, err := Run(w, s, Options{Mode: exec.ModeDAG, Workers: 1, Validate: true, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FellBackSequential || res.Mode != exec.ModeSequential || res.Recomputed || res.Attempts != 2+maxRetries {
		t.Fatalf("no sequential fallback after the retries: %+v", res)
	}
	sameBags(t, "fallback window", want, bags(t, res.Core))
}

func TestRecomputeFallback(t *testing.T) {
	w, s := newFixture(t)
	want := refRun(t, w, s)
	inj := faults.New(1)
	inj.SetProbability("step", 1) // every incremental step fails
	var buf bytes.Buffer
	res, err := Run(w, s, Options{
		Journal: journal.NewWriter(&buf), Seq: 9, Mode: exec.ModeDAG, Workers: 2, Validate: true, Faults: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recomputed || res.Mode != exec.ModeRecompute {
		t.Fatalf("no recompute fallback: %+v", res)
	}
	sameBags(t, "recompute window", want, bags(t, res.Core))
	if err := res.Core.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	lg := readLog(t, &buf)
	last := lg.Windows[len(lg.Windows)-1]
	if !last.Committed() || last.Begin.Mode != string(exec.ModeRecompute) || len(last.Steps) != 0 {
		t.Fatalf("recompute window shape: %+v", last)
	}
	for _, wl := range lg.Windows[:len(lg.Windows)-1] {
		if wl.Abort == nil {
			t.Fatalf("failed incremental attempt not aborted: %+v", wl.Begin)
		}
	}
}

func TestCrashLeavesJournalInFlight(t *testing.T) {
	w, s := newFixture(t)
	inj := faults.New(1)
	inj.CrashAt("step", 2)
	var buf bytes.Buffer
	_, err := Run(w, s, Options{
		Journal: journal.NewWriter(&buf), Seq: 1, Mode: exec.ModeSequential, Validate: true, Faults: inj,
	})
	if err == nil {
		t.Fatal("crash did not fail the run")
	}
	var f *faults.Fault
	if !errors.As(err, &f) || !f.Crash {
		t.Fatalf("crash fault not surfaced: %v", err)
	}
	lg := readLog(t, &buf)
	if lg.InFlight() == nil {
		t.Fatal("crashed journal does not need recovery")
	}
	wl := lg.InFlight()
	if wl.Abort != nil || wl.Commit != nil || len(wl.Steps) != 1 {
		t.Fatalf("in-flight window shape: steps=%d closed=%v", len(wl.Steps), wl.Closed())
	}
}

func TestRecoverCompletesCrashedWindow(t *testing.T) {
	w, s := newFixture(t)
	want := refRun(t, w, s)

	inj := faults.New(1)
	inj.CrashAt("step", 3)
	var buf bytes.Buffer
	_, err := Run(w, s, Options{
		Journal: journal.NewWriter(&buf), Seq: 4, Mode: exec.ModeSequential, Validate: true, Faults: inj,
	})
	if err == nil {
		t.Fatal("crash did not fail the run")
	}

	// Restart: the pre-window state (no staged batch — the journal
	// re-stages it) as a snapshot would restore it.
	lg := readLog(t, &buf)
	res, err := Recover(buildPristine(t), &lg, Options{Journal: journal.NewWriter(&buf)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recovered {
		t.Fatal("result not marked recovered")
	}
	sameBags(t, "recovered window", want, bags(t, res.Core))
	if err := res.Core.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	final := readLog(t, &buf)
	if final.InFlight() != nil || final.CommittedCount() != 1 {
		t.Fatalf("journal not completed: inflight=%v committed=%d", final.InFlight() != nil, final.CommittedCount())
	}
	wl := final.Windows[len(final.Windows)-1]
	if len(wl.Steps) != len(s) {
		t.Fatalf("completed window has %d steps, strategy %d (crashed steps + replayed rest, no duplicates)", len(wl.Steps), len(s))
	}
	seen := make(map[int]bool)
	for _, sr := range wl.Steps {
		if seen[sr.Index] {
			t.Fatalf("step %d journaled twice", sr.Index)
		}
		seen[sr.Index] = true
	}
}

// buildPristine is the fixture catalog and data without the staged batch —
// the state a pre-window snapshot restores.
func buildPristine(t testing.TB) *core.Warehouse {
	t.Helper()
	return loadCatalog(t,
		[]relation.Tuple{intRow(1, 10), intRow(2, 10), intRow(3, 20)},
		[]relation.Tuple{intRow(10, 100), intRow(20, 200)})
}

// loadCatalog defines R, S, J = R ⋈ S and A = Γ(J) over the given base rows.
func loadCatalog(t testing.TB, r, s []relation.Tuple) *core.Warehouse {
	t.Helper()
	w := core.New(core.Options{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.DefineBase("R", schemaR))
	must(w.DefineBase("S", schemaS))
	jb := algebra.NewBuilder().From("r", "R", schemaR).From("s", "S", schemaS)
	jb.Join("r.b", "s.b").SelectCol("r.a").SelectCol("s.c")
	must(w.DefineDerived("J", jb.MustBuild()))
	js := w.MustView("J").Schema()
	ab := algebra.NewBuilder().From("j", "J", js)
	ab.GroupByCol("j.a").Agg("total", delta.AggSum, ab.Col("j.c"))
	must(w.DefineDerived("A", ab.MustBuild()))
	must(w.LoadBase("R", r))
	must(w.LoadBase("S", s))
	must(w.RefreshAll())
	return w
}

func TestRecoverInFlightRecomputeWindow(t *testing.T) {
	w, s := newFixture(t)
	want := refRun(t, w, s)
	inj := faults.New(1)
	inj.SetProbability("step", 1)
	inj.CrashAt("recompute", 1)
	var buf bytes.Buffer
	_, err := Run(w, s, Options{
		Journal: journal.NewWriter(&buf), Seq: 2, Mode: exec.ModeSequential, Validate: true, Faults: inj,
	})
	if err == nil {
		t.Fatal("crash during recompute did not fail the run")
	}
	lg := readLog(t, &buf)
	if lg.InFlight() == nil || lg.InFlight().Begin.Mode != string(exec.ModeRecompute) {
		t.Fatalf("in-flight recompute window not found: %+v", lg.InFlight())
	}
	res, err := Recover(buildPristine(t), &lg, Options{Journal: journal.NewWriter(&buf)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recomputed || res.Mode != exec.ModeRecompute {
		t.Fatalf("recovery did not redo the recompute: %+v", res)
	}
	sameBags(t, "recovered recompute", want, bags(t, res.Core))
	final := readLog(t, &buf)
	if final.InFlight() != nil {
		t.Fatal("journal still in-flight after recovery")
	}
}

func TestRecoverRejectsWrongSnapshot(t *testing.T) {
	w, s := newFixture(t)
	inj := faults.New(1)
	inj.CrashAt("step", 2)
	var buf bytes.Buffer
	_, _ = Run(w, s, Options{
		Journal: journal.NewWriter(&buf), Mode: exec.ModeSequential, Validate: true, Faults: inj,
	})
	lg := readLog(t, &buf)
	wrong := buildPristine(t)
	d := delta.New(schemaR)
	d.Add(intRow(9, 9), 1)
	if err := wrong.StageDelta("R", d); err != nil {
		t.Fatal(err)
	}
	if _, err := wrong.Install("R"); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(wrong, &lg, Options{}); err == nil {
		t.Fatal("recovery accepted a warehouse whose state digest mismatches the journal")
	}
}

func TestRecoverNothingToDo(t *testing.T) {
	if _, err := Recover(buildPristine(t), &journal.Log{}, Options{}); err == nil {
		t.Fatal("recovery of an empty journal succeeded")
	}
}
