package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	warehouse "repro"
	"repro/internal/tpcd"
)

// runScript feeds commands to a fresh shell and returns the output.
func runScript(t *testing.T, script string) (string, error) {
	t.Helper()
	var out strings.Builder
	sh := &shell{w: warehouse.New(), out: &out}
	err := sh.run(strings.NewReader(script), false)
	return out.String(), err
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestShellEndToEnd(t *testing.T) {
	sales := writeFile(t, "sales.csv", "id,region,amount\n1,west,10\n2,east,5\n")
	batch := writeFile(t, "batch.csv", "id,region,amount,__count\n3,west,7,1\n")
	snap := filepath.Join(t.TempDir(), "snap.bin")
	script := `
CREATE BASE SALES (id INTEGER, region VARCHAR, amount FLOAT);
CREATE VIEW TOTALS AS SELECT region, SUM(amount) AS total FROM SALES GROUP BY region;
LOAD SALES FROM '` + sales + `';
REFRESH;
DELTA SALES FROM '` + batch + `';
SHOW STRATEGY minwork;
WINDOW;
VERIFY;
SELECT region, total FROM TOTALS ORDER BY total DESC LIMIT 1;
SHOW VIEWS;
SHOW HISTORY;
SHOW SCRIPT dualstage;
SHOW GRAPH;
SNAPSHOT SAVE '` + snap + `';
SNAPSHOT LOAD '` + snap + `';
HELP;
EXIT;
`
	out, err := runScript(t, script)
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out)
	}
	for _, want := range []string{
		"loaded 2 rows into SALES",
		"staged δSALES: +1 −0",
		"Comp(TOTALS, {SALES})",
		"window 1 [minwork]",
		"every view matches recomputation",
		"west | 17",
		"(1 rows)",
		"EXEC comp_TOTALS_from_SALES;",
		"CREATE PROCEDURE comp_TOTALS_from_SALES AS",
		"SALES",
		"digraph VDAG",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestShellDigest: DIGEST prints the epoch and state digest; two shells fed
// the same script agree (the replica-comparison use case), and a window
// changes the digest.
func TestShellDigest(t *testing.T) {
	sales := writeFile(t, "sales.csv", "id,region,amount\n1,west,10\n2,east,5\n")
	batch := writeFile(t, "batch.csv", "id,region,amount,__count\n3,west,7,1\n")
	script := `
CREATE BASE SALES (id INTEGER, region VARCHAR, amount FLOAT);
CREATE VIEW TOTALS AS SELECT region, SUM(amount) AS total FROM SALES GROUP BY region;
LOAD SALES FROM '` + sales + `';
REFRESH;
DIGEST;
DELTA SALES FROM '` + batch + `';
WINDOW;
DIGEST;
EXIT;
`
	digests := func() []string {
		out, err := runScript(t, script)
		if err != nil {
			t.Fatalf("%v\noutput:\n%s", err, out)
		}
		var got []string
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "state digest") {
				got = append(got, line)
			}
		}
		return got
	}
	a, b := digests(), digests()
	if len(a) != 2 || a[0] == a[1] {
		t.Fatalf("digest lines: %q", a)
	}
	if !strings.HasPrefix(a[0], "epoch 1 ") || !strings.HasPrefix(a[1], "epoch 2 ") {
		t.Fatalf("digest lines missing epochs: %q", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same script, different digests: %q vs %q", a[i], b[i])
		}
	}
}

func TestShellWindowModes(t *testing.T) {
	sales := writeFile(t, "sales.csv", "id,region,amount\n1,west,10\n2,east,5\n")
	b1 := writeFile(t, "b1.csv", "id,region,amount,__count\n3,west,7,1\n")
	b2 := writeFile(t, "b2.csv", "id,region,amount,__count\n4,east,2,1\n")
	b3 := writeFile(t, "b3.csv", "id,region,amount,__count\n1,west,10,-1\n")
	script := `
CREATE BASE SALES (id INTEGER, region VARCHAR, amount FLOAT);
CREATE VIEW TOTALS AS SELECT region, SUM(amount) AS total FROM SALES GROUP BY region;
LOAD SALES FROM '` + sales + `';
REFRESH;
DELTA SALES FROM '` + b1 + `';
WINDOW STAGED;
DELTA SALES FROM '` + b2 + `';
WINDOW minwork DAG 4;
DELTA SALES FROM '` + b3 + `';
WINDOW dualstage DAG;
VERIFY;
EXIT;
`
	out, err := runScript(t, script)
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out)
	}
	for _, want := range []string{
		"window 1 [minwork, staged",
		"window 2 [minwork, dag ×3]", // pool of 4 capped at the 3 expressions
		"window 3 [dualstage, dag",
		"critical path",
		"every view matches recomputation",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if _, err := runScript(t, "CREATE BASE B (x INTEGER);\nWINDOW minwork bogus;\n"); err == nil {
		t.Error("bad mode accepted")
	}
	if _, err := runScript(t, "CREATE BASE B (x INTEGER);\nWINDOW dag two;\n"); err == nil {
		t.Error("bad worker count accepted")
	}
}

// TestShellFlags: -f is the one flag; an engine setting, a value it does
// not read or a stray argument is refused.
func TestShellFlags(t *testing.T) {
	if script, err := parseFlags([]string{"-f", "x.whs"}, io.Discard); err != nil || script != "x.whs" {
		t.Errorf("-f x.whs: %q, %v", script, err)
	}
	for _, bad := range [][]string{{"-share"}, {"-f", "x.whs", "y.whs"}, {"-f"}} {
		if _, err := parseFlags(bad, io.Discard); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

// TestShellWindowWorkersOnlyAfterDAG: a worker count is a word only the DAG
// scheduler reads, so after SEQUENTIAL or STAGED (or no mode) it is refused
// with the usage, which names every mode; the window does not run, and the
// same batch then lands through WINDOW DAG 2. HELP names every mode too.
func TestShellWindowWorkersOnlyAfterDAG(t *testing.T) {
	const usage = "usage: WINDOW [planner] [SEQUENTIAL|STAGED|DAG [workers]]"
	sales := writeFile(t, "sales.csv", "id,region,amount\n1,west,10\n2,east,5\n")
	b1 := writeFile(t, "b1.csv", "id,region,amount,__count\n3,west,7,1\n")
	setup := `
CREATE BASE SALES (id INTEGER, region VARCHAR, amount FLOAT);
CREATE VIEW TOTALS AS SELECT region, SUM(amount) AS total FROM SALES GROUP BY region;
LOAD SALES FROM '` + sales + `';
REFRESH;
DELTA SALES FROM '` + b1 + `';
`
	for _, stmt := range []string{
		"WINDOW SEQUENTIAL 4;",
		"WINDOW STAGED 7;",
		"WINDOW minwork SEQUENTIAL 2;",
		"WINDOW prune STAGED 3;",
	} {
		out, err := runScript(t, setup+stmt+"\n")
		if err == nil || err.Error() != usage {
			t.Errorf("%s: error %v, want %q", stmt, err, usage)
		}
		if strings.Contains(out, "window 1") {
			t.Errorf("%s ran a window:\n%s", stmt, out)
		}
	}
	out, err := runScript(t, setup+"WINDOW DAG 2;\nVERIFY;\nHELP;\n")
	if err != nil || !strings.Contains(out, "window 1 [minwork, dag") || !strings.Contains(out, "every view matches recomputation") {
		t.Fatalf("WINDOW DAG 2: %v\n%s", err, out)
	}
	if !strings.Contains(out, "[SEQUENTIAL|STAGED|DAG [workers]]") {
		t.Errorf("HELP does not name SEQUENTIAL:\n%s", out)
	}
}

func TestShellMultilineAndComments(t *testing.T) {
	out, err := runScript(t, `
-- a comment line
CREATE BASE B (x INTEGER,
               y VARCHAR);
SELECT x
FROM B;
EXIT;
`)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "(0 rows)") {
		t.Errorf("multiline select failed:\n%s", out)
	}
}

func TestShellSemicolonInString(t *testing.T) {
	out, err := runScript(t, `
CREATE BASE B (x INTEGER, s VARCHAR);
SELECT x FROM B WHERE s = 'a;b';
EXIT;
`)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "(0 rows)") {
		t.Errorf("quoted semicolon mishandled:\n%s", out)
	}
}

func TestShellErrors(t *testing.T) {
	bad := []string{
		"BOGUS;",
		"CREATE TABLE X (a INTEGER);",
		"CREATE BASE;",
		"CREATE BASE B (x NOPE);",
		"CREATE BASE B x INTEGER;",
		"LOAD X FROM 'nope.csv';",
		"LOAD X 'nope.csv';",
		"DELTA X FROM 'nope.csv';",
		"WINDOW bogus;",
		"SHOW;",
		"SHOW BOGUS;",
		"SHOW STRATEGY bogus;",
		"DEFER X;",
		"DEFER X ON;",
		"REFRESH STALE;",
		"SHOW STALE;",
		"VERIFY please;",
		"SHOW VIEWS please;",
		"WINDOW DAG 2 STAGED;",
		"REFRESH everything;",
		"HELP me;",
		"DIGEST now;",
		"EXIT now;",
		"JOURNAL OFF now;",
		"EXPLAIN SHARING;",
		"SNAPSHOT;",
		"SNAPSHOT PUSH 'f';",
		"SELECT nope FROM nowhere;",
		"CREATE VIEW V AS SELECT x FROM NOWHERE;",
		"CREATE BASE S (a INTEGER, a INTEGER);",
		"WINDOW DAG -3;",
		"WINDOW minwork DAG -3;",
	}
	for _, cmd := range bad {
		if _, err := runScript(t, cmd+"\n"); err == nil {
			t.Errorf("accepted %q", cmd)
		}
	}
}

// TestSnapshotSaveRefusedKeepsTheFile: a SAVE refused for staged changes
// leaves the snapshot it would have replaced whole, and it still loads.
func TestSnapshotSaveRefusedKeepsTheFile(t *testing.T) {
	sales := writeFile(t, "sales.csv", "id,region,amount\n1,west,10\n2,east,5\n")
	batch := writeFile(t, "batch.csv", "id,region,amount,__count\n3,west,7,1\n")
	snap := filepath.Join(t.TempDir(), "snap.bin")
	var out strings.Builder
	sh := &shell{w: warehouse.New(), out: &out}
	if err := sh.run(strings.NewReader(`
CREATE BASE SALES (id INTEGER, region VARCHAR, amount FLOAT);
CREATE VIEW TOTALS AS SELECT region, SUM(amount) AS total FROM SALES GROUP BY region;
LOAD SALES FROM '`+sales+`';
REFRESH;
SNAPSHOT SAVE '`+snap+`';
DELTA SALES FROM '`+batch+`';
`), false); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	saved, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.run(strings.NewReader("SNAPSHOT SAVE '"+snap+"';\n"), false); err == nil || !strings.Contains(err.Error(), "pending") {
		t.Fatalf("SAVE over staged changes: %v", err)
	}
	if after, err := os.ReadFile(snap); err != nil || string(after) != string(saved) {
		t.Fatalf("the refused SAVE left %d bytes of the %d saved (%v)", len(after), len(saved), err)
	}
	if got, err := runScript(t, `
CREATE BASE SALES (id INTEGER, region VARCHAR, amount FLOAT);
CREATE VIEW TOTALS AS SELECT region, SUM(amount) AS total FROM SALES GROUP BY region;
SNAPSHOT LOAD '`+snap+`';
SELECT region, total FROM TOTALS ORDER BY total DESC LIMIT 1;
`); err != nil || !strings.Contains(got, "west | 10") {
		t.Fatalf("loading the kept snapshot: %v\n%s", err, got)
	}
}

func TestCutStatement(t *testing.T) {
	stmt, rest, found := cutStatement("a; b;")
	if !found || stmt != "a" || rest != " b;" {
		t.Errorf("cut = %q %q %v", stmt, rest, found)
	}
	if _, _, found := cutStatement("no terminator"); found {
		t.Errorf("found statement without semicolon")
	}
	stmt, _, found = cutStatement("x = 'a;b'; rest")
	if !found || stmt != "x = 'a;b'" {
		t.Errorf("string-aware cut = %q %v", stmt, found)
	}
}

// TestShellJournalRecover: the documented crash-recovery recipe — restore
// the pre-window snapshot, reattach the journal, RECOVER — completes a
// window that died mid-execution, through shell statements alone.
func TestShellJournalRecover(t *testing.T) {
	sales := writeFile(t, "sales.csv", "id,region,amount\n1,west,10\n2,east,5\n")
	batch := writeFile(t, "batch.csv", "id,region,amount,__count\n3,west,7,1\n")
	dir := t.TempDir()
	snap := filepath.Join(dir, "pre.snap")
	jpath := filepath.Join(dir, "wh.journal")

	setup := `
CREATE BASE SALES (id INTEGER, region VARCHAR, amount FLOAT);
CREATE VIEW TOTALS AS SELECT region, SUM(amount) AS total FROM SALES GROUP BY region;
LOAD SALES FROM '` + sales + `';
REFRESH;
SNAPSHOT SAVE '` + snap + `';
DELTA SALES FROM '` + batch + `';
`
	// The "crashing process": set up via shell statements, then die
	// mid-window via an injected crash fault on the same warehouse.
	var out strings.Builder
	sh := &shell{w: warehouse.New(), out: &out}
	if err := sh.run(strings.NewReader(setup), false); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	j, err := warehouse.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	inj := warehouse.NewFaultInjector(1)
	inj.CrashAt("step", 1)
	if _, err := sh.w.RunWindowOpts(warehouse.WindowOptions{Journal: j, Faults: inj}); err == nil {
		t.Fatal("crashed window reported success")
	}
	j.Close()

	// The "restarted process": rebuild schema, restore the snapshot,
	// reattach the journal, recover, and keep working.
	recoverScript := `
CREATE BASE SALES (id INTEGER, region VARCHAR, amount FLOAT);
CREATE VIEW TOTALS AS SELECT region, SUM(amount) AS total FROM SALES GROUP BY region;
SNAPSHOT LOAD '` + snap + `';
JOURNAL ON '` + jpath + `';
JOURNAL STATUS;
RECOVER;
VERIFY;
SELECT region, total FROM TOTALS ORDER BY total DESC LIMIT 1;
DELTA SALES FROM '` + batch + `';
WINDOW DAG 2;
JOURNAL STATUS;
JOURNAL OFF;
EXIT;
`
	got, err := runScript(t, recoverScript)
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, got)
	}
	for _, want := range []string{
		"in-flight window found — RECOVER to complete it",
		"ok: in-flight window recovered",
		"every view matches recomputation",
		"west | 17",
		"journaling on: 2 committed windows, clean",
		"ok: journaling off",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestShellJournalErrors: malformed JOURNAL statements and RECOVER without
// a journal are rejected.
func TestShellJournalErrors(t *testing.T) {
	for _, cmd := range []string{
		"JOURNAL;",
		"JOURNAL PUSH;",
		"JOURNAL ON;",
		"RECOVER;",
	} {
		if _, err := runScript(t, cmd+"\n"); err == nil {
			t.Errorf("accepted %q", cmd)
		}
	}
}

// TestShellInterrupt: a fired process signal (modelled as a cancelled shell
// context) aborts the WINDOW command with the interrupted exit code; the
// warehouse keeps its pre-window state, the batch stays pending, and the
// journal ends with an abort record, not an in-flight window.
func TestShellInterrupt(t *testing.T) {
	sales := writeFile(t, "sales.csv", "id,region,amount\n1,west,10\n2,east,5\n")
	batch := writeFile(t, "batch.csv", "id,region,amount,__count\n3,west,7,1\n")
	jpath := filepath.Join(t.TempDir(), "wh.journal")
	script := `
CREATE BASE SALES (id INTEGER, region VARCHAR, amount FLOAT);
CREATE VIEW TOTALS AS SELECT region, SUM(amount) AS total FROM SALES GROUP BY region;
LOAD SALES FROM '` + sales + `';
REFRESH;
DELTA SALES FROM '` + batch + `';
JOURNAL ON '` + jpath + `';
WINDOW;
`
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the signal already fired
	var out strings.Builder
	sh := &shell{w: warehouse.New(), out: &out, ctx: ctx}
	err := sh.run(strings.NewReader(script), false)
	if sh.j != nil {
		sh.j.Close()
	}
	if err == nil {
		t.Fatalf("interrupted WINDOW succeeded:\n%s", out.String())
	}
	if got := exitCodeFor(err); got != exitInterrupted {
		t.Fatalf("exit code %d for %v, want %d", got, err, exitInterrupted)
	}
	if got, _ := sh.w.Size("TOTALS"); got != 2 {
		t.Errorf("TOTALS size = %d after aborted window", got)
	}
	if p := sh.w.Pending(); len(p) != 1 || p[0] != "SALES" {
		t.Errorf("pending = %v after aborted window", p)
	}
	j, jerr := warehouse.OpenJournal(jpath)
	if jerr != nil {
		t.Fatal(jerr)
	}
	defer j.Close()
	if j.NeedsRecovery() {
		t.Error("interrupted window left the journal in-flight; want abort record")
	}

	// A fresh shell over the same journal runs the window to completion.
	sh2 := &shell{w: warehouse.New(), out: &out, ctx: context.Background()}
	script2 := `
CREATE BASE SALES (id INTEGER, region VARCHAR, amount FLOAT);
CREATE VIEW TOTALS AS SELECT region, SUM(amount) AS total FROM SALES GROUP BY region;
LOAD SALES FROM '` + sales + `';
REFRESH;
DELTA SALES FROM '` + batch + `';
JOURNAL ON '` + jpath + `';
WINDOW;
VERIFY;
`
	if err := sh2.run(strings.NewReader(script2), false); err != nil {
		t.Fatalf("post-interrupt window failed: %v", err)
	}
	if sh2.j != nil {
		sh2.j.Close()
	}
}

// tpcdScript writes the tpcdgen files for cfg, with a batch of fraction p,
// into dir and returns the script.
func tpcdScript(t *testing.T, cfg tpcd.Config, p float64, dir string) string {
	t.Helper()
	paths, err := tpcd.WriteFiles(cfg, p, dir)
	if err != nil {
		t.Fatal(err)
	}
	script, err := os.ReadFile(paths[len(paths)-1])
	if err != nil {
		t.Fatal(err)
	}
	return string(script)
}

// journalState opens the journal the way the next shell would and reports
// what it holds.
func journalState(t *testing.T, path string) (committed int, needsRecovery bool) {
	t.Helper()
	j, err := warehouse.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	return j.Committed(), j.NeedsRecovery()
}

// runShell runs script on sh and closes the journal it left attached.
func runShell(sh *shell, script string) error {
	err := sh.run(strings.NewReader(script), false)
	if sh.j != nil {
		sh.j.Close()
		sh.j = nil
	}
	return err
}

// TestShellRunsTheTPCDScript: the script tpcdgen writes loads base views
// bag-identical to the TPC-D warehouse's at the same seed (floats round-trip
// through the CSVs), and the window the shell then runs is the one the facade
// runs over that warehouse with the batch staged directly: the same strategy,
// the same work and the same schedule bounds.
func TestShellRunsTheTPCDScript(t *testing.T) {
	cfg := tpcd.Config{SF: 0.001, Seed: 7}
	const p, workers = 0.1, 4
	script := tpcdScript(t, cfg, p, t.TempDir())
	var out strings.Builder
	sh := &shell{w: warehouse.New(), out: &out}
	if err := sh.run(strings.NewReader(script), false); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}

	tw, err := tpcd.NewWarehouse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, view := range tpcd.BaseViews {
		got, want := sh.w.Internal().MustView(view).SortedRows(), tw.W.MustView(view).SortedRows()
		if len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the script loaded %d rows, not the %d TPC-D generates", view, len(got), len(want))
		}
	}

	w := warehouse.FromCore(tw.W, warehouse.CostModel{})
	if _, err := tw.StageChanges(tpcd.UniformDecrease(p)); err != nil {
		t.Fatal(err)
	}
	want, err := w.RunWindowOpts(warehouse.WindowOptions{Planner: warehouse.PrunePlanner, Mode: warehouse.ModeDAG, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := sh.run(strings.NewReader(fmt.Sprintf("SHOW STRATEGY prune;\nWINDOW prune DAG %d;\nVERIFY;\n", workers)), false); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	for _, line := range []string{
		want.Plan.Strategy.String() + "\n",
		fmt.Sprintf("window 1 [prune, dag ×%d]: work=%d (comp=%d inst=%d) ", want.Parallel.Workers, want.Report.TotalWork(), want.Report.CompWork, want.Report.InstWork),
		fmt.Sprintf(" (span %d, critical path %d)\n", want.Parallel.SpanWork, want.Parallel.CriticalPathWork),
		"ok: every view matches recomputation",
	} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("output lacks %q:\n%s", line, out.String())
		}
	}
}

// TestUsageExitCode: over a loaded TPC-D warehouse with its batch staged, an
// unknown planner or mode and RECOVER without a journal are refused with the
// plain error exit code, and none of them runs the window.
func TestUsageExitCode(t *testing.T) {
	var out strings.Builder
	sh := &shell{w: warehouse.New(), out: &out}
	if err := runShell(sh, tpcdScript(t, tpcd.Config{SF: 0.001, Seed: 7}, 0.10, t.TempDir())); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	pending := len(sh.w.Pending())
	if pending == 0 {
		t.Fatal("the script staged no batch: the test checks nothing")
	}
	for _, cmd := range []string{
		"WINDOW minwork bogus;",
		"WINDOW bogus;",
		"RECOVER;",
	} {
		err := runShell(sh, cmd+"\n")
		if got := exitCodeFor(err); got != exitError {
			t.Errorf("%s: exit %d (%v), want %d", cmd, got, err, exitError)
		}
		if got := len(sh.w.Pending()); got != pending {
			t.Fatalf("%s: %d views pending, %d before", cmd, got, pending)
		}
	}
}

// TestDataExitCode: a TPC-D script whose base CSV is missing, or whose batch
// has a malformed header, stops with the plain error exit code.
func TestDataExitCode(t *testing.T) {
	dir := t.TempDir()
	script := tpcdScript(t, tpcd.Config{SF: 0.001, Seed: 7}, 0.10, dir)
	lineitem := filepath.Join(dir, "LINEITEM.csv")
	if err := os.Remove(lineitem); err != nil {
		t.Fatal(err)
	}
	err := runShell(&shell{w: warehouse.New(), out: &strings.Builder{}}, script)
	if got := exitCodeFor(err); got != exitError || !strings.Contains(fmt.Sprint(err), "LINEITEM.csv") {
		t.Fatalf("missing base CSV: exit %d (%v), want %d naming the file", got, err, exitError)
	}

	script = tpcdScript(t, tpcd.Config{SF: 0.001, Seed: 7}, 0.10, dir)
	if err := os.WriteFile(filepath.Join(dir, "ORDER.delta.csv"), []byte("nope\n1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = runShell(&shell{w: warehouse.New(), out: &strings.Builder{}}, script)
	if got := exitCodeFor(err); got != exitError || !strings.Contains(fmt.Sprint(err), "header") {
		t.Fatalf("malformed batch: exit %d (%v), want %d for its header", got, err, exitError)
	}
}

// TestCrashResumeFlow: a TPC-D window that dies mid-execution leaves the
// journal in-flight. A shell that restores the pre-window snapshot and
// reattaches the journal refuses a new window with the recovery-needed exit
// code until RECOVER completes the journaled window; the recovered warehouse
// verifies, and the next journaled window runs normally.
func TestCrashResumeFlow(t *testing.T) {
	dir := t.TempDir()
	script := tpcdScript(t, tpcd.Config{SF: 0.001, Seed: 7}, 0.10, dir)
	load, deltas, ok := strings.Cut(script, "\nDELTA ")
	schema, _, ok2 := strings.Cut(script, "\nLOAD ")
	if !ok || !ok2 {
		t.Fatalf("script has no LOAD or DELTA lines:\n%s", script)
	}
	snap := filepath.Join(dir, "pre.snap")
	jpath := filepath.Join(dir, "wh.journal")

	// The dying process: load, snapshot, stage, and run the journaled window
	// into a crash at step 3.
	var out strings.Builder
	sh := &shell{w: warehouse.New(), out: &out}
	if err := runShell(sh, load+"\nSNAPSHOT SAVE '"+snap+"';\nDELTA "+deltas); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	j, err := warehouse.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	inj := warehouse.NewFaultInjector(1)
	inj.CrashAt("step", 3)
	_, err = sh.w.RunWindowOpts(warehouse.WindowOptions{
		Journal: j, Mode: warehouse.ModeDAG, Workers: 4, Faults: inj,
	})
	j.Close()
	if err == nil {
		t.Fatal("crashed window reported success")
	}

	// The restarted process: a window over the in-flight journal is refused.
	out.Reset()
	sh = &shell{w: warehouse.New(), out: &out}
	restore := schema + "\nSNAPSHOT LOAD '" + snap + "';\nJOURNAL ON '" + jpath + "';\n"
	err = runShell(sh, restore+"WINDOW;\n")
	if got := exitCodeFor(err); got != exitRecovery {
		t.Fatalf("WINDOW over an in-flight journal: exit %d (%v), want %d\n%s", got, err, exitRecovery, out.String())
	}

	// RECOVER completes the window, and the result matches recomputation.
	out.Reset()
	sh = &shell{w: warehouse.New(), out: &out}
	if err := runShell(sh, restore+"RECOVER;\nVERIFY;\n"); err != nil {
		t.Fatalf("resume failed: %v\noutput:\n%s", err, out.String())
	}
	if committed, needs := journalState(t, jpath); needs || committed != 1 {
		t.Fatalf("journal after RECOVER: committed=%d needsRecovery=%v", committed, needs)
	}

	// With the journal clean, the next journaled window runs normally.
	out.Reset()
	sh = &shell{w: warehouse.New(), out: &out}
	if err := runShell(sh, script+"JOURNAL ON '"+jpath+"';\nWINDOW;\n"); err != nil {
		t.Fatalf("post-recovery window failed: %v\noutput:\n%s", err, out.String())
	}
	if committed, _ := journalState(t, jpath); committed != 2 {
		t.Fatalf("journal holds %d committed windows, want 2", committed)
	}
}

// TestInterruptExitCode: a cancelled shell context (what SIGINT/SIGTERM
// deliver through main's NotifyContext) aborts a TPC-D window with the
// interrupted exit code and leaves the journal consistent: an abort record
// closes the window, so no RECOVER is needed and the same script with a live
// context commits.
func TestInterruptExitCode(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "wh.journal")
	script := tpcdScript(t, tpcd.Config{SF: 0.001, Seed: 7}, 0.10, dir) +
		"JOURNAL ON '" + jpath + "';\nWINDOW minwork DAG;\n"
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the signal already fired
	var out strings.Builder
	err := runShell(&shell{w: warehouse.New(), out: &out, ctx: ctx}, script)
	if got := exitCodeFor(err); got != exitInterrupted {
		t.Fatalf("interrupted window: exit %d (%v), want %d", got, err, exitInterrupted)
	}
	committed, needs := journalState(t, jpath)
	if needs {
		t.Fatal("interrupted window left the journal in-flight; want an abort record")
	}
	if committed != 0 {
		t.Fatalf("interrupted window committed %d windows", committed)
	}

	if err := runShell(&shell{w: warehouse.New(), out: &out, ctx: context.Background()}, script); err != nil {
		t.Fatalf("post-interrupt window failed: %v\noutput:\n%s", err, out.String())
	}
	if committed, _ := journalState(t, jpath); committed != 1 {
		t.Fatalf("journal after rerun: committed=%d", committed)
	}
}
