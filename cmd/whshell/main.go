// Command whshell is an interactive shell over the warehouse library: define
// views, load data, stage change batches, run update windows, and query —
// the full lifecycle from a prompt (or a piped script).
//
//	go run ./cmd/whshell [-f script.whs]
//
// Commands (case-insensitive keywords; SQL per the library's dialect):
//
//	CREATE BASE <name> (<col> <TYPE>, ...);     define a base view
//	CREATE VIEW <name> AS SELECT ...;           define a derived view
//	LOAD <view> FROM '<file.csv>';              bulk-load a base view
//	DELTA <view> FROM '<file.csv>';             stage a change batch (CSV, __count column)
//	REFRESH;                                    materialize derived views
//	WINDOW [planner] [STAGED|DAG [workers]];    plan + execute an update window
//	PARALLEL ON|OFF [workers];                  intra-compute term/morsel parallelism
//	SHARE ON|OFF;                               window-wide cross-view shared computation
//	EXPLAIN SHARING [planner];                  sharing election + observed reuse
//	MEMORY <budget-mb>|OFF;                     window memory budget (spill-to-disk builds)
//	SELECT ...;                                 ad-hoc query (ORDER BY col|ordinal, LIMIT n OFFSET m)
//	SHOW VIEWS | STRATEGY [planner] | SCRIPT [planner] | HISTORY | STALE | GRAPH | CACHE;
//	DEFER <view> ON|OFF;                        deferred maintenance policy
//	REFRESH STALE;                              recompute stale views
//	VERIFY;                                     check every view against recomputation
//	DIGEST;                                     print epoch + state digest (replica comparison)
//	SNAPSHOT SAVE '<file>' | SNAPSHOT LOAD '<file>';
//	JOURNAL ON '<file>' | OFF | STATUS;         crash-safe (journaled) windows
//	RECOVER;                                    complete the journal's in-flight window
//	HELP; EXIT;
//
// With a journal attached, WINDOW runs crash-safe: begin/step/commit
// records frame the execution, and a process death mid-window leaves an
// in-flight record. To recover after a crash: restore the pre-window state
// (SNAPSHOT LOAD), reattach the journal (JOURNAL ON), and RECOVER.
//
// SIGINT/SIGTERM cancel the in-flight window and whshell exits 3: the
// warehouse keeps its pre-window state, the staged batch stays pending, and
// a journaled window closes with an abort record, so the journal never
// needs recovery after an interrupt. Exit codes: 0 success, 1 script or
// data error, 3 window interrupted, 4 recovery needed.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	warehouse "repro"
)

// Exit codes (documented in the package comment).
const (
	exitOK          = 0
	exitError       = 1
	exitInterrupted = 3
	exitRecovery    = 4
)

func main() {
	scriptPath := flag.String("f", "", "execute commands from a file instead of stdin")
	flag.Parse()

	in := os.Stdin
	interactive := true
	if *scriptPath != "" {
		f, err := os.Open(*scriptPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "whshell:", err)
			os.Exit(exitError)
		}
		defer f.Close()
		in = f
		interactive = false
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sh := &shell{w: warehouse.New(), out: os.Stdout, ctx: ctx}
	err := sh.run(in, interactive)
	if sh.j != nil {
		sh.j.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "whshell:", err)
		os.Exit(exitCodeFor(err))
	}
}

// exitCodeFor classifies a shell error: an interrupted or timed-out window
// is 3 (state untouched, journal consistent), a journal that needs
// recovery is 4, anything else 1.
func exitCodeFor(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, warehouse.ErrWindowAborted),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return exitInterrupted
	case errors.Is(err, warehouse.ErrRecoveryNeeded):
		return exitRecovery
	default:
		return exitError
	}
}

type shell struct {
	w   *warehouse.Warehouse
	j   *warehouse.Journal // nil when journaling is off
	out io.Writer
	// ctx carries process-level cancellation (SIGINT/SIGTERM) into update
	// windows; nil means Background.
	ctx context.Context
	// history holds the lines WINDOW and RECOVER printed, for SHOW HISTORY.
	history []string
}

// run reads semicolon-terminated statements and executes them.
func (sh *shell) run(in io.Reader, interactive bool) error {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if interactive {
			if buf.Len() == 0 {
				fmt.Fprint(sh.out, "wh> ")
			} else {
				fmt.Fprint(sh.out, "...> ")
			}
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		if trimmed := strings.TrimSpace(line); strings.HasPrefix(trimmed, "--") {
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		for {
			stmt, rest, found := cutStatement(buf.String())
			if !found {
				break
			}
			buf.Reset()
			buf.WriteString(rest)
			if strings.TrimSpace(stmt) == "" {
				continue
			}
			quit, err := sh.execute(strings.TrimSpace(stmt))
			if err != nil {
				fmt.Fprintln(sh.out, "error:", err)
				if !interactive {
					return err
				}
			}
			if quit {
				return nil
			}
		}
		prompt()
	}
	return scanner.Err()
}

// cutStatement splits off the first semicolon-terminated statement,
// respecting single-quoted strings.
func cutStatement(s string) (stmt, rest string, found bool) {
	inString := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			inString = !inString
		case ';':
			if !inString {
				return s[:i], s[i+1:], true
			}
		}
	}
	return "", s, false
}

func (sh *shell) execute(stmt string) (quit bool, err error) {
	upper := strings.ToUpper(stmt)
	words := strings.Fields(upper)
	if len(words) == 0 {
		return false, nil
	}
	switch words[0] {
	case "EXIT", "QUIT":
		return true, nil
	case "HELP":
		sh.help()
		return false, nil
	case "SELECT":
		return false, sh.query(stmt)
	case "CREATE":
		if len(words) < 2 {
			return false, fmt.Errorf("CREATE BASE or CREATE VIEW expected")
		}
		switch words[1] {
		case "BASE":
			return false, sh.createBase(stmt)
		case "VIEW":
			_, err := sh.w.DefineViewSQLStatement(stmt)
			if err == nil {
				fmt.Fprintln(sh.out, "ok")
			}
			return false, err
		default:
			return false, fmt.Errorf("CREATE %s not supported", words[1])
		}
	case "LOAD":
		return false, sh.loadOrDelta(stmt, false)
	case "DELTA":
		return false, sh.loadOrDelta(stmt, true)
	case "REFRESH":
		if len(words) > 1 && words[1] == "STALE" {
			if err := sh.w.RefreshStale(); err != nil {
				return false, err
			}
			fmt.Fprintln(sh.out, "ok")
			return false, nil
		}
		if err := sh.w.Refresh(); err != nil {
			return false, err
		}
		fmt.Fprintln(sh.out, "ok")
		return false, nil
	case "WINDOW":
		// WINDOW [planner] [SEQUENTIAL|STAGED|DAG [workers]];
		planner := warehouse.MinWorkPlanner
		mode := warehouse.ModeSequential
		workers := 0
		rest := words[1:]
		if len(rest) > 0 {
			if m, err := warehouse.ParseMode(strings.ToLower(rest[0])); err == nil {
				mode, rest = m, rest[1:]
			} else {
				planner, rest = warehouse.PlannerName(strings.ToLower(rest[0])), rest[1:]
				if len(rest) > 0 {
					m, err := warehouse.ParseMode(strings.ToLower(rest[0]))
					if err != nil {
						return false, err
					}
					mode, rest = m, rest[1:]
				}
			}
		}
		if len(rest) > 0 {
			n, err := strconv.Atoi(rest[0])
			if err != nil {
				return false, fmt.Errorf("WINDOW: bad worker count %q", rest[0])
			}
			workers = n
		}
		// Journaled when a journal is attached, and cancellable when the
		// shell has a context (SIGINT/SIGTERM aborts the window).
		win, err := sh.w.RunWindowOpts(warehouse.WindowOptions{
			Planner: planner, Mode: mode, Workers: workers,
			Journal: sh.j, Context: sh.ctx,
		})
		if err != nil {
			return false, err
		}
		sh.history = append(sh.history, win.String())
		fmt.Fprintln(sh.out, win)
		return false, nil
	case "SHOW":
		if len(words) < 2 {
			return false, fmt.Errorf("SHOW VIEWS | STRATEGY | SCRIPT | HISTORY | STALE | GRAPH | CACHE")
		}
		return false, sh.show(words[1:])
	case "EXPLAIN":
		// EXPLAIN SHARING [planner]: plan the staged changes (default: the
		// sharing-aware planner) and print the sharing election — each
		// candidate's estimated size, savings and admission under the byte
		// budget — plus, when a window has run with sharing, the observed
		// per-entry requests/hits/bytes from the latest one.
		if len(words) < 2 || words[1] != "SHARING" {
			return false, fmt.Errorf("usage: EXPLAIN SHARING [planner]")
		}
		return false, sh.explainSharing(words[2:])
	case "DEFER":
		fields := strings.Fields(stmt)
		if len(fields) != 3 {
			return false, fmt.Errorf("usage: DEFER <view> ON|OFF")
		}
		on := strings.EqualFold(fields[2], "ON")
		if err := sh.w.SetDeferred(fields[1], on); err != nil {
			return false, err
		}
		fmt.Fprintln(sh.out, "ok")
		return false, nil
	case "PARALLEL":
		// PARALLEL ON|OFF [workers]: widen the term engine's worker pool
		// (concurrent maintenance terms, morsel-parallel probes) or bring
		// it back to width 1. The worker budget is shared with DAG windows
		// (WINDOW ... DAG [workers]), so both levels compose.
		if len(words) < 2 || (words[1] != "ON" && words[1] != "OFF") {
			return false, fmt.Errorf("usage: PARALLEL ON|OFF [workers]")
		}
		on := words[1] == "ON"
		workers := 0
		if len(words) > 2 {
			n, err := strconv.Atoi(words[2])
			if err != nil || n < 0 {
				return false, fmt.Errorf("PARALLEL: bad worker count %q", words[2])
			}
			workers = n
		}
		sh.w.SetParallelism(workers, on)
		if on {
			label := "GOMAXPROCS"
			if workers > 0 {
				label = strconv.Itoa(workers)
			}
			fmt.Fprintf(sh.out, "ok: term-parallel engine on (workers=%s)\n", label)
		} else {
			fmt.Fprintln(sh.out, "ok: term-parallel engine off")
		}
		return false, nil
	case "SHARE":
		// SHARE ON|OFF: toggle window-wide shared computation (operands
		// several views' Comps read are hashed once and reused across them
		// until their view installs, within the MEMORY budget). WINDOW
		// reports shared=hits/total and the bytes peak when it engages.
		if len(words) != 2 || (words[1] != "ON" && words[1] != "OFF") {
			return false, fmt.Errorf("usage: SHARE ON|OFF")
		}
		on := words[1] == "ON"
		sh.w.SetSharing(on)
		if on {
			fmt.Fprintln(sh.out, "ok: window-wide shared computation on")
		} else {
			fmt.Fprintln(sh.out, "ok: window-wide shared computation off")
		}
		return false, nil
	case "MEMORY":
		// MEMORY <budget-mb>|OFF: bound the window's transient build-state
		// memory. Oversized builds spill to disk Grace-style and are probed
		// partition-wise; results and measured work are identical at any
		// budget. WINDOW reports spills/bytes/peak when spilling engages.
		if len(words) != 2 {
			return false, fmt.Errorf("usage: MEMORY <budget-mb>|OFF")
		}
		if words[1] == "OFF" {
			sh.w.SetMemoryBudget(0)
			fmt.Fprintln(sh.out, "ok: window memory budget off")
			return false, nil
		}
		n, err := strconv.ParseInt(words[1], 10, 64)
		var bytes int64
		if err == nil {
			bytes, err = warehouse.MiB(n)
		}
		if err != nil || bytes == 0 {
			return false, fmt.Errorf("MEMORY: bad budget %q (MiB, or OFF)", words[1])
		}
		sh.w.SetMemoryBudget(bytes)
		fmt.Fprintf(sh.out, "ok: window memory budget %dMiB (oversized builds spill to disk)\n", n)
		return false, nil
	case "VERIFY":
		if err := sh.w.Verify(); err != nil {
			return false, err
		}
		fmt.Fprintln(sh.out, "ok: every view matches recomputation")
		return false, nil
	case "DIGEST":
		fmt.Fprintf(sh.out, "epoch %d  state digest %016x\n", sh.w.Epoch(), sh.w.StateDigest())
		return false, nil
	case "SNAPSHOT":
		return false, sh.snapshot(stmt)
	case "JOURNAL":
		return false, sh.journal(stmt)
	case "RECOVER":
		if sh.j == nil {
			return false, fmt.Errorf("no journal attached (JOURNAL ON '<file>')")
		}
		win, err := sh.w.Recover(sh.j)
		if err != nil {
			return false, err
		}
		sh.history = append(sh.history, win.String())
		fmt.Fprintln(sh.out, win)
		fmt.Fprintln(sh.out, "ok: in-flight window recovered")
		return false, nil
	default:
		return false, fmt.Errorf("unknown command %q (try HELP)", words[0])
	}
}

func (sh *shell) help() {
	fmt.Fprint(sh.out, `commands:
  CREATE BASE <name> (<col> <INTEGER|FLOAT|VARCHAR|DATE|BOOLEAN>, ...);
  CREATE VIEW <name> AS SELECT ...;
  LOAD <view> FROM '<file.csv>';        DELTA <view> FROM '<file.csv>';
  REFRESH;                              REFRESH STALE;
  WINDOW [minwork|prune|dualstage|shared] [STAGED|DAG [workers]];    VERIFY;  DIGEST;
  PARALLEL ON|OFF [workers];            intra-compute term/morsel parallelism
  SHARE ON|OFF;                         window-wide cross-view shared computation
  EXPLAIN SHARING [planner];            sharing election + last window's observed reuse
  MEMORY <budget-mb>|OFF;               window memory budget (spill-to-disk builds)
  SELECT ... [ORDER BY col|n [ASC|DESC], ...] [LIMIT n [OFFSET m]];
  SHOW VIEWS | STRATEGY [planner] | SCRIPT [planner] | HISTORY | STALE | GRAPH | CACHE;
  DEFER <view> ON|OFF;
  SNAPSHOT SAVE '<file>';               SNAPSHOT LOAD '<file>';
  JOURNAL ON '<file>' | OFF | STATUS;   crash-safe (journaled) windows
  RECOVER;                              complete the journal's in-flight window
  HELP;  EXIT;
`)
}

// explainSharing plans with the named planner (default: shared) and prints
// the sharing election, then the latest window's observed per-entry stats.
func (sh *shell) explainSharing(words []string) error {
	planner := warehouse.SharedPlanner
	if len(words) > 0 {
		planner = warehouse.PlannerName(strings.ToLower(words[0]))
	}
	plan, err := sh.w.Plan(planner)
	if err != nil {
		return err
	}
	text, err := sh.w.ExplainSharing(plan.Strategy)
	if err != nil {
		return err
	}
	fmt.Fprint(sh.out, text)
	return nil
}

var kindNames = map[string]warehouse.Kind{
	"INTEGER": warehouse.KindInt, "INT": warehouse.KindInt,
	"FLOAT": warehouse.KindFloat, "DOUBLE": warehouse.KindFloat,
	"VARCHAR": warehouse.KindString, "TEXT": warehouse.KindString, "STRING": warehouse.KindString,
	"DATE": warehouse.KindDate, "BOOLEAN": warehouse.KindBool, "BOOL": warehouse.KindBool,
}

// createBase parses CREATE BASE name (col TYPE, ...).
func (sh *shell) createBase(stmt string) error {
	open := strings.Index(stmt, "(")
	closeIdx := strings.LastIndex(stmt, ")")
	if open < 0 || closeIdx < open {
		return fmt.Errorf("usage: CREATE BASE <name> (<col> <TYPE>, ...)")
	}
	head := strings.Fields(stmt[:open])
	if len(head) != 3 {
		return fmt.Errorf("usage: CREATE BASE <name> (<col> <TYPE>, ...)")
	}
	name := head[2]
	var schema warehouse.Schema
	for _, part := range strings.Split(stmt[open+1:closeIdx], ",") {
		fields := strings.Fields(part)
		if len(fields) != 2 {
			return fmt.Errorf("bad column definition %q", strings.TrimSpace(part))
		}
		kind, ok := kindNames[strings.ToUpper(fields[1])]
		if !ok {
			return fmt.Errorf("unknown type %q", fields[1])
		}
		schema = append(schema, warehouse.Column{Name: fields[0], Kind: kind})
	}
	if err := sh.w.DefineBase(name, schema); err != nil {
		return err
	}
	fmt.Fprintln(sh.out, "ok")
	return nil
}

// loadOrDelta parses LOAD/DELTA <view> FROM '<file>'.
func (sh *shell) loadOrDelta(stmt string, isDelta bool) error {
	fields := strings.Fields(stmt)
	if len(fields) != 4 || !strings.EqualFold(fields[2], "FROM") {
		return fmt.Errorf("usage: %s <view> FROM '<file.csv>'", strings.ToUpper(fields[0]))
	}
	view := fields[1]
	path := strings.Trim(fields[3], "'")
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if isDelta {
		d, err := sh.w.StageDeltaCSV(view, f)
		if err != nil {
			return err
		}
		fmt.Fprintf(sh.out, "staged δ%s: +%d −%d\n", view, d.PlusCount(), d.MinusCount())
		return nil
	}
	n, err := sh.w.LoadCSV(view, f)
	if err != nil {
		return err
	}
	fmt.Fprintf(sh.out, "loaded %d rows into %s\n", n, view)
	return nil
}

func (sh *shell) query(stmt string) error {
	rows, err := sh.w.Query(stmt)
	if err != nil {
		return err
	}
	schema, err := sh.w.QuerySchema(stmt)
	if err != nil {
		return err
	}
	fmt.Fprintln(sh.out, strings.Join(schema.Names(), " | "))
	for _, r := range rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.String()
		}
		fmt.Fprintln(sh.out, strings.Join(parts, " | "))
	}
	fmt.Fprintf(sh.out, "(%d rows)\n", len(rows))
	return nil
}

func (sh *shell) show(words []string) error {
	switch words[0] {
	case "VIEWS":
		for _, v := range sh.w.Views() {
			size, err := sh.w.Size(v)
			if err != nil {
				return err
			}
			schema, err := sh.w.ViewSchema(v)
			if err != nil {
				return err
			}
			fmt.Fprintf(sh.out, "%-20s %8d rows  (%s)\n", v, size, schema)
		}
	case "STRATEGY", "SCRIPT":
		planner := warehouse.MinWorkPlanner
		if len(words) > 1 {
			planner = warehouse.PlannerName(strings.ToLower(words[1]))
		}
		plan, err := sh.w.Plan(planner)
		if err != nil {
			return err
		}
		if words[0] == "SCRIPT" {
			fmt.Fprint(sh.out, sh.w.Script(plan.Strategy))
		} else {
			fmt.Fprintln(sh.out, plan.Strategy)
		}
	case "HISTORY":
		for _, line := range sh.history {
			fmt.Fprintln(sh.out, line)
		}
	case "STALE":
		fmt.Fprintln(sh.out, sh.w.StaleViews())
	case "GRAPH":
		g, err := sh.w.Graph()
		if err != nil {
			return err
		}
		fmt.Fprint(sh.out, g.Dot())
	case "CACHE":
		st := sh.w.PlanCacheStats()
		fmt.Fprintf(sh.out, "plan cache: %d/%d entries, %d hits, %d misses, %d evictions, %d invalidations\n",
			st.Entries, st.Cap, st.Hits, st.Misses, st.Evictions, st.Invalidations)
	default:
		return fmt.Errorf("SHOW %s not supported", words[0])
	}
	return nil
}

// journal parses JOURNAL ON '<file>' | OFF | STATUS.
func (sh *shell) journal(stmt string) error {
	fields := strings.Fields(stmt)
	if len(fields) < 2 {
		return fmt.Errorf("usage: JOURNAL ON '<file>' | OFF | STATUS")
	}
	switch strings.ToUpper(fields[1]) {
	case "ON":
		if len(fields) != 3 {
			return fmt.Errorf("usage: JOURNAL ON '<file>'")
		}
		j, err := warehouse.OpenJournal(strings.Trim(fields[2], "'"))
		if err != nil {
			return err
		}
		if sh.j != nil {
			sh.j.Close()
		}
		sh.j = j
		note := ""
		if j.NeedsRecovery() {
			note = "; in-flight window found — RECOVER to complete it"
		}
		fmt.Fprintf(sh.out, "ok: journaling windows (%d committed%s)\n", j.Committed(), note)
	case "OFF":
		if sh.j != nil {
			sh.j.Close()
			sh.j = nil
		}
		fmt.Fprintln(sh.out, "ok: journaling off")
	case "STATUS":
		if sh.j == nil {
			fmt.Fprintln(sh.out, "journaling off")
			return nil
		}
		state := "clean"
		if sh.j.NeedsRecovery() {
			state = "in-flight window (RECOVER to complete it)"
		}
		fmt.Fprintf(sh.out, "journaling on: %d committed windows, %s\n", sh.j.Committed(), state)
	default:
		return fmt.Errorf("usage: JOURNAL ON '<file>' | OFF | STATUS")
	}
	return nil
}

func (sh *shell) snapshot(stmt string) error {
	fields := strings.Fields(stmt)
	if len(fields) != 3 {
		return fmt.Errorf("usage: SNAPSHOT SAVE|LOAD '<file>'")
	}
	path := strings.Trim(fields[2], "'")
	switch strings.ToUpper(fields[1]) {
	case "SAVE":
		if err := sh.w.SaveSnapshotFile(sh.ctx, path); err != nil {
			return err
		}
	case "LOAD":
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := sh.w.LoadSnapshot(f); err != nil {
			return err
		}
	default:
		return fmt.Errorf("usage: SNAPSHOT SAVE|LOAD '<file>'")
	}
	fmt.Fprintln(sh.out, "ok")
	return nil
}
