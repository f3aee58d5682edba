// Command whshell is an interactive shell over the warehouse library: define
// views, load data, stage change batches, run update windows, and query —
// the full lifecycle from a prompt (or a piped script).
//
//	go run ./cmd/whshell [-f script.whs]
//
// cmd/tpcdgen writes tpcd.whs, a script that defines the paper's TPC-D
// warehouse and stages a change batch; a WINDOW statement after it runs one
// of the paper's update windows.
//
// Commands (case-insensitive keywords; SQL per the library's dialect):
//
//	CREATE BASE <name> (<col> <TYPE>, ...);     define a base view
//	CREATE VIEW <name> AS SELECT ...;           define a derived view
//	LOAD <view> FROM '<file.csv>';              bulk-load a base view
//	DELTA <view> FROM '<file.csv>';             stage a change batch (CSV, __count column)
//	REFRESH;                                    materialize derived views
//	WINDOW [planner] [SEQUENTIAL|STAGED|DAG [workers]];  plan + execute an update window
//	SELECT ...;                                 ad-hoc query (ORDER BY col|ordinal, LIMIT n OFFSET m)
//	SHOW VIEWS | STRATEGY [planner] | SCRIPT [planner] | HISTORY | GRAPH | CACHE;
//	                                            (SCRIPT: §5.5 procedure catalog + update script)
//	VERIFY;                                     check every view against recomputation
//	DIGEST;                                     print epoch + state digest (replica comparison)
//	SNAPSHOT SAVE '<file>' | SNAPSHOT LOAD '<file>';
//	JOURNAL ON '<file>' | OFF | STATUS;         crash-safe (journaled) windows
//	RECOVER;                                    complete the journal's in-flight window
//	HELP; EXIT;
//
// A statement refuses words it does not read, with its usage.
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
// data error, 2 bad flags, 3 window interrupted, 4 recovery needed.
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
	"repro/internal/exec"
)

// Exit codes (documented in the package comment).
const (
	exitOK          = 0
	exitError       = 1
	exitUsage       = 2
	exitInterrupted = 3
	exitRecovery    = 4
)

func main() {
	scriptPath, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(exitOK)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "whshell:", err)
		os.Exit(exitUsage)
	}

	in := os.Stdin
	interactive := true
	if scriptPath != "" {
		f, err := os.Open(scriptPath)
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
	err = sh.run(in, interactive)
	if sh.j != nil {
		sh.j.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "whshell:", err)
		os.Exit(exitCodeFor(err))
	}
}

// parseFlags reads the command line: the script to run (empty for stdin). A
// stray argument is refused.
func parseFlags(args []string, stderr io.Writer) (script string, err error) {
	fs := flag.NewFlagSet("whshell", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scriptPath := fs.String("f", "", "execute commands from a file instead of stdin")
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	if fs.NArg() > 0 {
		return "", fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return *scriptPath, nil
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
	if takesNoOperands[words[0]] && len(words) > 1 {
		return false, fmt.Errorf("usage: %s (takes no operands)", words[0])
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
		// Only the DAG scheduler reads a worker count.
		if len(rest) > 0 && mode == warehouse.ModeDAG {
			n, err := strconv.Atoi(rest[0])
			if err != nil {
				return false, fmt.Errorf("WINDOW: bad worker count %q", rest[0])
			}
			workers, rest = n, rest[1:]
		}
		if len(rest) > 0 {
			return false, errWindowUsage
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
			return false, errShowUsage
		}
		return false, sh.show(words[1:])
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

// takesNoOperands lists the statements that are one keyword. Given more
// words, they are refused: running one without the words it does not read
// would do something the script did not ask for.
var takesNoOperands = map[string]bool{
	"EXIT": true, "QUIT": true, "HELP": true, "REFRESH": true,
	"VERIFY": true, "DIGEST": true, "RECOVER": true,
}

var errWindowUsage = errors.New("usage: WINDOW [planner] [SEQUENTIAL|STAGED|DAG [workers]]")

var errShowUsage = errors.New("usage: SHOW VIEWS | STRATEGY [planner] | SCRIPT [planner] | HISTORY | GRAPH | CACHE")

func (sh *shell) help() {
	fmt.Fprint(sh.out, `commands:
  CREATE BASE <name> (<col> <INTEGER|FLOAT|VARCHAR|DATE|BOOLEAN>, ...);
  CREATE VIEW <name> AS SELECT ...;
  LOAD <view> FROM '<file.csv>';        DELTA <view> FROM '<file.csv>';
  REFRESH;
  WINDOW [minwork|prune|dualstage|shared] [SEQUENTIAL|STAGED|DAG [workers]];    VERIFY;  DIGEST;
  SELECT ... [ORDER BY col|n [ASC|DESC], ...] [LIMIT n [OFFSET m]];
  SHOW VIEWS | STRATEGY [planner] | SCRIPT [planner] | HISTORY | GRAPH | CACHE;
  SNAPSHOT SAVE '<file>';               SNAPSHOT LOAD '<file>';
  JOURNAL ON '<file>' | OFF | STATUS;   crash-safe (journaled) windows
  RECOVER;                              complete the journal's in-flight window
  HELP;  EXIT;
`)
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
	operands := 0
	if words[0] == "STRATEGY" || words[0] == "SCRIPT" {
		operands = 1
	}
	if len(words) > 1+operands {
		return errShowUsage
	}
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
			fmt.Fprintln(sh.out, "-- stored procedures (defined once per VDAG):")
			fmt.Fprintln(sh.out, exec.ProcedureCatalog(sh.w.Internal()))
			fmt.Fprint(sh.out, sh.w.Script(plan.Strategy))
		} else {
			fmt.Fprintln(sh.out, plan.Strategy)
		}
	case "HISTORY":
		for _, line := range sh.history {
			fmt.Fprintln(sh.out, line)
		}
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
	op := strings.ToUpper(fields[1])
	if (op == "OFF" || op == "STATUS") && len(fields) > 2 {
		return fmt.Errorf("usage: JOURNAL %s", op)
	}
	switch op {
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
