package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	warehouse "repro"
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
SHOW STALE;
SHOW GRAPH;
DEFER TOTALS ON;
DEFER TOTALS OFF;
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

// TestShellSharing drives SHARE ON/OFF around a window whose two sibling
// join views read the same operands, so the build cache kept for the window
// serves the second one and the WINDOW line reports it.
func TestShellSharing(t *testing.T) {
	r := writeFile(t, "r.csv", "id,a\n1,10\n2,20\n3,30\n")
	s := writeFile(t, "s.csv", "id,b\n1,1\n2,2\n3,3\n")
	dr := writeFile(t, "dr.csv", "id,a,__count\n4,40,1\n")
	ds := writeFile(t, "ds.csv", "id,b,__count\n4,4,1\n")
	script := `
CREATE BASE R (id INTEGER, a INTEGER);
CREATE BASE S (id INTEGER, b INTEGER);
CREATE VIEW V1 AS SELECT r.a AS a, s.b AS b FROM R r, S s WHERE r.id = s.id;
CREATE VIEW V2 AS SELECT r.a AS g, SUM(s.b) AS t FROM R r, S s WHERE r.id = s.id GROUP BY r.a;
LOAD R FROM '` + r + `';
LOAD S FROM '` + s + `';
REFRESH;
DELTA R FROM '` + dr + `';
DELTA S FROM '` + ds + `';
SHARE ON;
WINDOW dualstage;
VERIFY;
SHARE OFF;
EXIT;
`
	out, err := runScript(t, script)
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out)
	}
	for _, want := range []string{
		"ok: window-wide shared computation on",
		" shared=",
		"every view matches recomputation",
		"ok: window-wide shared computation off",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if _, err := runScript(t, "SHARE MAYBE;\n"); err == nil {
		t.Error("bad SHARE argument accepted")
	}
	if _, err := runScript(t, "SHARE ON 32;\n"); err == nil {
		t.Error("SHARE accepted a budget: MEMORY is the one budget")
	}
}

// TestShellMemoryBudget: MEMORY takes a positive count of MiB or OFF. A count
// whose bytes an int64 cannot hold is refused, not wrapped: 2^43 MiB once set
// a negative budget and 2^44 + 1 MiB a 1 MiB one.
func TestShellMemoryBudget(t *testing.T) {
	out, err := runScript(t, "MEMORY 4;\nMEMORY OFF;\n")
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out)
	}
	for _, want := range []string{"ok: window memory budget 4MiB", "ok: window memory budget off"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, bad := range []string{"0", "-1", "8796093022208", "17592186044417", "four"} {
		if out, err := runScript(t, "MEMORY "+bad+";\n"); err == nil {
			t.Errorf("MEMORY %s accepted:\n%s", bad, out)
		}
	}
}

// TestShellExplainSharing: the sibling views join R with SG, a summary view
// over S, because that is the state a window still hashes and can share — a
// plain table's state is read through its resident join index.
func TestShellExplainSharing(t *testing.T) {
	r := writeFile(t, "r.csv", "id,a\n1,10\n2,20\n3,30\n")
	s := writeFile(t, "s.csv", "id,b\n1,1\n2,2\n3,3\n")
	dr := writeFile(t, "dr.csv", "id,a,__count\n4,40,1\n")
	script := `
CREATE BASE R (id INTEGER, a INTEGER);
CREATE BASE S (id INTEGER, b INTEGER);
CREATE VIEW SG AS SELECT id, SUM(b) AS b FROM S GROUP BY id;
CREATE VIEW V1 AS SELECT r.a AS a, s.b AS b FROM R r, SG s WHERE r.id = s.id;
CREATE VIEW V2 AS SELECT r.a AS g, SUM(s.b) AS t FROM R r, SG s WHERE r.id = s.id GROUP BY r.a;
LOAD R FROM '` + r + `';
LOAD S FROM '` + s + `';
REFRESH;
DELTA R FROM '` + dr + `';
SHARE ON;
EXPLAIN SHARING;
WINDOW shared;
EXPLAIN SHARING;
VERIFY;
EXIT;
`
	out, err := runScript(t, script)
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out)
	}
	for _, want := range []string{
		"sharing election:",
		"window 1 [shared]",
		"observed (window 1):",
		// V1 and V2 both join δR with SG's state, an aggregate store no index
		// serves: the window's cache held one build of it, asked for twice.
		"SG[0]", "requests=2 hits=1", "fate=resident",
		"every view matches recomputation",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if _, err := runScript(t, "EXPLAIN NOTHING;\n"); err == nil {
		t.Error("bad EXPLAIN argument accepted")
	}
	if _, err := runScript(t, "EXPLAIN SHARING bogus;\n"); err == nil {
		t.Error("unknown planner accepted by EXPLAIN SHARING")
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
		"SNAPSHOT;",
		"SNAPSHOT PUSH 'f';",
		"SELECT nope FROM nowhere;",
		"CREATE VIEW V AS SELECT x FROM NOWHERE;",
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
