// Package journal implements the append-only window journal that makes
// update windows crash-safe. Every journaled window writes a Begin record
// (sequence number, planner, execution mode, a fingerprint of the
// pre-window materialized state, the full strategy and the staged change
// batch), one Step record per completed Comp/Inst expression (with the
// installed delta's digest for Inst steps), and a Commit — or an Abort when
// the window failed in-process. A crash leaves the journal with a Begin
// and some Steps but neither Commit nor Abort; package recovery detects
// that in-flight window, restores the pre-window state, re-stages the
// journaled batch and re-executes the strategy, verifying each replayed
// step against the journaled digests.
//
// Each record is one CRC64-checked frame of the record log (frame.go, which
// the ingest journal and the replication log read and write through too), so
// a torn tail — the normal artifact of a crash mid-append — is detected and
// tolerated: ReadLog returns every intact record, sets Truncated and reports
// where the intact records end.
//
// Durability. The writer hands every record to the file in one Write as it
// is appended, and syncs after a Begin, a Commit and an Abort — not after a
// Step, which rides the next sync. The begin record's sync runs beside the
// window: Begin starts it and returns, steps are appended while the disk
// works, and Commit, Abort and Wait wait for it to return before anything
// else happens to the file, so a window still waits for the disk twice but
// idles through one of the waits only. A window is durable when its commit
// record is, and its begin record is durable before its closing record is
// written. A process that dies leaves exactly the records it appended. A
// machine that loses power leaves one of four things of the window it
// interrupted:
//
//   - nothing, or a begin frame cut short or holed — whatever step frames
//     follow it. The reader stops at the first frame that fails its CRC and
//     OpenAppend cuts the file there: the window never happened, its batch is
//     still with whoever staged it, and its steps touched only a clone;
//   - the begin record (strategy and full change batch) and some prefix of
//     its step records, possibly ending inside a frame — an in-flight window.
//     Recovery re-executes every step the journal does not hold, so lost step
//     records cost redone work and never a different result;
//   - the same and a torn closing record: cut off, an in-flight window;
//   - the whole window, closed.
//
// A closing record without its begin record is not among them, because the
// closing record is not written until the begin record's sync has returned.
package journal

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/strategy"
)

// The window journal's record types: the type byte of their frames.
const (
	TypeBegin  byte = 1
	TypeStep   byte = 2
	TypeCommit byte = 3
	TypeAbort  byte = 4
)

// RowChange is one signed tuple change of a journaled batch, keyed by the
// tuple's encoded form (relation.Tuple.Encode).
type RowChange struct {
	Key   string
	Count int64
}

// ViewBatch is the staged delta of one base view.
type ViewBatch struct {
	View string
	Rows []RowChange
}

// BeginRecord opens a window: everything recovery needs to re-create and
// re-execute it against the restored pre-window state.
type BeginRecord struct {
	// Seq is the window's sequence number (informational).
	Seq int
	// Planner names the planner that produced the strategy (informational).
	Planner string
	// Mode is the execution mode the window ran under ("sequential",
	// "staged", "dag", or "recompute" for the degradation path).
	Mode string
	// Workers is the worker bound of the original run (informational;
	// results are mode- and worker-invariant).
	Workers int
	// SkipEmptyDeltas records the work-affecting warehouse option, so a
	// replay reproduces the journaled Work figures exactly.
	SkipEmptyDeltas bool
	// ProbeWork is flag bit 2, which engines that still had the UseIndexes
	// option set under it: the window's Work figures count index probes,
	// not operand tuples. Nothing sets it any more; it stays decodable so
	// that replaying such a journal is refused with a reason (package
	// recovery) instead of diverging step by step.
	ProbeWork bool
	// StateDigest fingerprints the materialized (installed) state the
	// window started from; recovery verifies the restored snapshot against
	// it before re-executing.
	StateDigest uint64
	// BatchDigest fingerprints Batch (cross-check; the batch itself is
	// stored in full).
	BatchDigest uint64
	// Strategy is the full expression sequence of the window.
	Strategy strategy.Strategy
	// Batch is the staged change batch, one entry per base view with
	// pending changes, sorted by view name.
	Batch []ViewBatch
}

// StepRecord marks one completed expression.
type StepRecord struct {
	// Index is the expression's position in the Begin record's strategy.
	Index int
	// Key is the expression's strategy key (sanity cross-check).
	Key string
	// Work is the step's measured work (operand tuples for Comp, rows
	// installed for Inst).
	Work int64
	// Terms is the Comp's maintenance-term count (0 for Inst).
	Terms int
	// Skipped marks a Comp elided by the empty-delta optimization.
	Skipped bool
	// Digest fingerprints the delta an Inst step installed; 0 when not
	// digested (Comp steps, and views whose float-valued aggregates make
	// bit-exact digests unsound across evaluation orders).
	Digest uint64
}

// CommitRecord closes a window successfully.
type CommitRecord struct {
	// TotalWork is the window's measured work.
	TotalWork int64
	// ElapsedNS is the window's wall-clock duration in nanoseconds.
	ElapsedNS int64
	// UnixNano is the commit's wall-clock time (0 when unrecorded — journals
	// written before commit times existed decode with zeros).
	UnixNano int64
	// AcceptUnixNano is when the window's change batch was accepted from the
	// stream (0 for operator-invoked windows). Commit minus accept is the
	// freshness a replica can report against the leader.
	AcceptUnixNano int64
}

// AbortRecord closes a window that failed in-process (the failure was
// observed and handled; nothing is left to recover). A crashed window by
// definition has no Abort.
type AbortRecord struct {
	Reason string
}

// Writer appends records to a journal sink. Methods are safe for
// concurrent use (DAG workers journal steps as they complete). Errors are
// sticky: once an append or a sync fails the journal tail is suspect, so
// every later append reports the first error.
type Writer struct {
	mu  sync.Mutex // serializes appends
	log *Appender
	ctx context.Context // when non-nil, gates begin/step appends
	// flushed is closed when the sync the last begin record started has
	// returned and its failure, if any, is the sticky error; nil before the
	// first.
	flushed chan struct{}
}

// NewWriter creates a journal writer appending to out. If out has a
// Sync() error method (an *os.File), it is called after each begin, commit
// and abort record is written. The begin record's call runs on a goroutine
// while the window's steps execute, and out must take Write calls beside it
// as a file does; Commit and Abort wait for it, so a window's begin record is
// durable before its closing record is written and its commit before the
// caller adopts the result. Step records are written as they complete and
// become durable with the next of those syncs (see the package comment). A
// caller that stops using the writer with a window open — or closes out —
// calls Wait first.
func NewWriter(out io.Writer) *Writer { return &Writer{log: NewAppender(out)} }

// Err returns the sticky error, if any append or sync has failed.
func (w *Writer) Err() error { return w.log.Err() }

// SetContext attaches ctx to the writer: once ctx is cancelled, Begin and
// Step appends are refused with ctx's error, so a dead window cannot keep
// opening or extending journal windows. Commit and Abort stay exempt — they
// are how an already-executed window closes its journal record, and
// refusing them would manufacture a phantom in-flight window. The refusal
// is not sticky (the journal tail is intact). Pass nil to detach.
func (w *Writer) SetContext(ctx context.Context) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ctx = ctx
}

// Wait returns once the sync started by the last Begin has returned, with
// the writer's sticky error: that sync's failure, if it failed. Commit and
// Abort wait by themselves; Wait is for a window that gets neither — a
// crash-class exit leaves the journal in flight — and for whoever closes the
// file.
func (w *Writer) Wait() error {
	w.awaitFlush()
	return w.Err()
}

// awaitFlush returns once no begin record's sync is running.
func (w *Writer) awaitFlush() {
	w.mu.Lock()
	flushed := w.flushed
	w.mu.Unlock()
	if flushed != nil {
		<-flushed
	}
}

// append writes one record through a single Write, and syncs after every
// record but a step: begin, commit and abort are the records durability is
// stated in, and a step rides the next sync. Each of the three first waits
// for the begin sync in flight, so that a closing record follows a durable
// begin record and one sync runs at a time; a begin record's own sync is
// then started and left running, outside w.mu, for steps to be appended
// beside it. Its failure is the appender's sticky error, which the window's
// closing record, or Wait, reports.
func (w *Writer) append(typ byte, payload []byte) error {
	if typ != TypeStep {
		w.awaitFlush()
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ctx != nil && (typ == TypeBegin || typ == TypeStep) {
		if err := w.ctx.Err(); err != nil {
			return fmt.Errorf("journal: append cancelled: %w", err)
		}
	}
	if err := w.log.Append(typ, payload); err != nil || typ == TypeStep {
		return err
	}
	if typ != TypeBegin {
		return w.log.Sync()
	}
	flushed := make(chan struct{})
	w.flushed = flushed
	go func() {
		defer close(flushed)
		_ = w.log.Sync()
	}()
	return nil
}

// Begin appends a window-begin record and starts its sync, which Commit,
// Abort or Wait waits for.
func (w *Writer) Begin(b BeginRecord) error {
	p := binary.AppendUvarint(nil, uint64(b.Seq))
	p = AppendString(p, b.Planner)
	p = AppendString(p, b.Mode)
	p = binary.AppendUvarint(p, uint64(b.Workers))
	var flags byte
	if b.SkipEmptyDeltas {
		flags |= 1
	}
	if b.ProbeWork {
		flags |= 2
	}
	p = append(p, flags)
	p = binary.BigEndian.AppendUint64(p, b.StateDigest)
	p = binary.BigEndian.AppendUint64(p, b.BatchDigest)
	p = binary.AppendUvarint(p, uint64(len(b.Strategy)))
	for _, e := range b.Strategy {
		switch x := e.(type) {
		case strategy.Comp:
			p = AppendString(append(p, 0), x.View)
			p = binary.AppendUvarint(p, uint64(len(x.Over)))
			for _, o := range x.Over {
				p = AppendString(p, o)
			}
		case strategy.Inst:
			p = AppendString(append(p, 1), x.View)
		default:
			return fmt.Errorf("journal: unknown expression type %T", e)
		}
	}
	p = binary.AppendUvarint(p, uint64(len(b.Batch)))
	for _, vb := range b.Batch {
		p = AppendRows(AppendString(p, vb.View), vb.Rows)
	}
	return w.append(TypeBegin, p)
}

// Step appends a completed-step record.
func (w *Writer) Step(s StepRecord) error {
	p := binary.AppendUvarint(nil, uint64(s.Index))
	p = AppendString(p, s.Key)
	p = binary.AppendVarint(p, s.Work)
	p = binary.AppendUvarint(p, uint64(s.Terms))
	var flags byte
	if s.Skipped {
		flags = 1
	}
	p = binary.BigEndian.AppendUint64(append(p, flags), s.Digest)
	return w.append(TypeStep, p)
}

// Commit appends a window-commit record, once the window's begin record is
// durable, and syncs it.
func (w *Writer) Commit(c CommitRecord) error {
	p := binary.AppendVarint(nil, c.TotalWork)
	p = binary.AppendVarint(p, c.ElapsedNS)
	p = binary.AppendVarint(p, c.UnixNano)
	p = binary.AppendVarint(p, c.AcceptUnixNano)
	return w.append(TypeCommit, p)
}

// Abort appends a window-abort record, once the window's begin record is
// durable, and syncs it.
func (w *Writer) Abort(a AbortRecord) error {
	return w.append(TypeAbort, AppendString(nil, a.Reason))
}

// WindowLog is one window's records as read back from a journal.
type WindowLog struct {
	Begin  BeginRecord
	Steps  []StepRecord
	Commit *CommitRecord
	Abort  *AbortRecord
}

// Committed reports whether the window closed successfully.
func (wl *WindowLog) Committed() bool { return wl.Commit != nil }

// Closed reports whether the window finished (committed or aborted).
func (wl *WindowLog) Closed() bool { return wl.Commit != nil || wl.Abort != nil }

// Log is the parsed content of a journal.
type Log struct {
	Windows []WindowLog
	// Truncated reports that the journal ended in a torn or corrupt frame
	// (dropped); the expected artifact of a crash mid-append.
	Truncated bool
	// Size is the length in bytes of the intact records: where a torn tail
	// begins. A file is cut back to it before anything is appended
	// (OpenAppend), or the torn frame would hide every later record from the
	// next reader.
	Size int64
	// asm holds the window Feed has open; Windows ends with a copy of it.
	asm Assembler
}

// InFlight returns the journal's in-flight window: the last window, when
// it has neither Commit nor Abort — the signature of a crash. Earlier
// unclosed windows followed by later activity are considered abandoned.
func (lg *Log) InFlight() *WindowLog {
	if len(lg.Windows) == 0 {
		return nil
	}
	last := &lg.Windows[len(lg.Windows)-1]
	if last.Closed() {
		return nil
	}
	return last
}

// CommittedCount returns how many windows committed.
func (lg *Log) CommittedCount() int {
	n := 0
	for i := range lg.Windows {
		if lg.Windows[i].Committed() {
			n++
		}
	}
	return n
}

// ReadLog parses a journal file's bytes, and is where the file reader's two
// leniencies are: a torn or corrupt tail — an unknown record type included —
// is dropped (ScanFile; Truncated is set and Size is where it begins), and an
// unclosed window followed by a new begin is kept, as abandoned (Feed). A
// CRC-valid record that fails to decode, or a record outside any window, is a
// format error.
func ReadLog(in io.Reader) (Log, error) {
	buf, err := io.ReadAll(in)
	if err != nil {
		return Log{}, fmt.Errorf("journal: reading the log: %w", err)
	}
	var lg Log
	lg.Size, lg.Truncated, err = ScanFile(buf, lg.Feed)
	return lg, err
}

// Feed folds the next record of a journal file into lg — the callback ReadLog
// hands ScanFile, and OpenAppend's for a journal about to be appended to. It
// is the Assembler's grammar but for one rule: a begin record may follow a
// window that never closed, which stays in Windows without a commit or an
// abort. A process that died mid-window and was restarted without recovery
// leaves that, and only the last window can be in flight.
func (lg *Log) Feed(typ byte, payload []byte, _ int) error {
	if typ == TypeBegin {
		lg.asm.Reset()
	}
	wl, err := lg.asm.Feed(typ, payload)
	if err != nil {
		return err
	}
	if wl == nil {
		wl = lg.asm.cur
	}
	if typ == TypeBegin {
		lg.Windows = append(lg.Windows, *wl)
	} else {
		lg.Windows[len(lg.Windows)-1] = *wl
	}
	return nil
}

// Assembler folds a sequence of records into windows — the one place that
// does. Feed it each record in log order; it returns the completed WindowLog
// when a commit or abort record closes the open window, nil otherwise.
// Records that violate the window grammar (a step outside any window, a begin
// inside an open one) are errors: on a verified stream they indicate a
// protocol bug, not line noise.
type Assembler struct {
	cur *WindowLog
}

// InFlight reports whether a window is open (a begin has been fed without
// its commit or abort).
func (a *Assembler) InFlight() bool { return a.cur != nil }

// Reset discards any partially assembled window — used when the stream
// position is rewound (e.g. a corrupt chunk is dropped and re-fetched).
func (a *Assembler) Reset() { a.cur = nil }

// Feed consumes one record. When the record closes a window, the assembled
// WindowLog is returned and the assembler becomes idle. A type the window
// journal does not have wraps ErrCorruptFrame.
func (a *Assembler) Feed(typ byte, payload []byte) (*WindowLog, error) {
	switch {
	case typ < TypeBegin || typ > TypeAbort:
		return nil, fmt.Errorf("%w: unknown record type %d", ErrCorruptFrame, typ)
	case typ == TypeBegin && a.cur != nil:
		return nil, fmt.Errorf("journal: begin record arrived inside open window %d", a.cur.Begin.Seq)
	case typ != TypeBegin && a.cur == nil:
		return nil, fmt.Errorf("journal: %s record outside any window", [...]string{TypeStep: "step", TypeCommit: "commit", TypeAbort: "abort"}[typ])
	}
	switch typ {
	case TypeBegin:
		b, err := decodeBegin(payload)
		if err != nil {
			return nil, err
		}
		a.cur = &WindowLog{Begin: b}
		return nil, nil
	case TypeStep:
		s, err := decodeStep(payload)
		if err != nil {
			return nil, err
		}
		a.cur.Steps = append(a.cur.Steps, s)
		return nil, nil
	case TypeCommit:
		c, err := DecodeCommitRecord(payload)
		if err != nil {
			return nil, err
		}
		a.cur.Commit = &c
	default:
		c := NewCursor("journal: abort", payload)
		ab := AbortRecord{Reason: c.String("reason")}
		if err := c.Done(); err != nil {
			return nil, err
		}
		a.cur.Abort = &ab
	}
	wl := a.cur
	a.cur = nil
	return wl, nil
}

func decodeBegin(p []byte) (BeginRecord, error) {
	c := NewCursor("journal: begin", p)
	var b BeginRecord
	b.Seq = int(c.Uvarint("seq"))
	b.Planner = c.String("planner")
	b.Mode = c.String("mode")
	b.Workers = int(c.Uvarint("workers"))
	flags := c.Byte("flags")
	b.SkipEmptyDeltas, b.ProbeWork = flags&1 != 0, flags&2 != 0
	b.StateDigest = c.Uint64("state digest")
	b.BatchDigest = c.Uint64("batch digest")
	for i, n := 0, c.Count("strategy length"); i < n && c.err == nil; i++ {
		switch kind, view := c.Byte("expr kind"), c.String("expr view"); kind {
		case 0:
			nOver := c.Count("comp over count")
			over := make([]string, 0, min(nOver, 64))
			for j := 0; j < nOver && c.err == nil; j++ {
				over = append(over, c.String("comp over"))
			}
			b.Strategy = append(b.Strategy, strategy.Comp{View: view, Over: over})
		case 1:
			b.Strategy = append(b.Strategy, strategy.Inst{View: view})
		default:
			c.Fail("expr kind", fmt.Errorf("unknown expression kind %d", kind))
		}
	}
	for i, n := 0, c.Count("batch view count"); i < n && c.err == nil; i++ {
		b.Batch = append(b.Batch, ViewBatch{View: c.String("batch view"), Rows: c.Rows("batch row")})
	}
	return b, c.Done()
}

func decodeStep(p []byte) (StepRecord, error) {
	c := NewCursor("journal: step", p)
	var s StepRecord
	s.Index = int(c.Uvarint("index"))
	s.Key = c.String("key")
	s.Work = c.Varint("work")
	s.Terms = int(c.Uvarint("terms"))
	s.Skipped = c.Byte("flags")&1 != 0
	s.Digest = c.Uint64("digest")
	return s, c.Done()
}

// DecodeCommitRecord decodes a commit-record payload. Replication reads the
// stable tip's wall-clock timestamps straight off the byte log with it, so
// the leader's HTTP handlers never touch the (unsynchronized) parsed journal.
func DecodeCommitRecord(p []byte) (CommitRecord, error) {
	c := NewCursor("journal: commit", p)
	rec := CommitRecord{TotalWork: c.Varint("work"), ElapsedNS: c.Varint("elapsed")}
	if len(c.buf) != 0 { // a commit record from before the timestamps has none
		rec.UnixNano = c.Varint("time")
		rec.AcceptUnixNano = c.Varint("accept time")
	}
	return rec, c.Done()
}

// RowsOf lists a delta's row changes, sorted by key for deterministic bytes.
func RowsOf(d *delta.Delta) []RowChange {
	var rows []RowChange
	d.ScanEncoded(func(key string, count int64) bool {
		rows = append(rows, RowChange{Key: key, Count: count})
		return true
	})
	slices.SortFunc(rows, func(a, b RowChange) int { return strings.Compare(a.Key, b.Key) })
	return rows
}

// BatchOf collects a warehouse's staged base-view deltas as a journaled
// batch, sorted by view name (and rows by key) for deterministic bytes.
func BatchOf(w *core.Warehouse) ([]ViewBatch, error) {
	var out []ViewBatch
	for _, name := range w.ViewNames() {
		v := w.MustView(name)
		if !v.IsBase() || !v.HasPending() {
			continue
		}
		d, err := w.DeltaOf(name)
		if err != nil {
			return nil, err
		}
		out = append(out, ViewBatch{View: name, Rows: RowsOf(d)})
	}
	slices.SortFunc(out, func(a, b ViewBatch) int { return strings.Compare(a.View, b.View) })
	return out, nil
}

// RestoreBatch re-stages a journaled batch onto a warehouse whose catalog
// matches the journal's (the inverse of BatchOf).
func RestoreBatch(w *core.Warehouse, batch []ViewBatch) error {
	for _, vb := range batch {
		v := w.View(vb.View)
		if v == nil {
			return fmt.Errorf("journal: batch names unknown view %q", vb.View)
		}
		d := delta.New(v.Schema())
		for _, rc := range vb.Rows {
			d.AddEncoded(rc.Key, rc.Count)
		}
		if err := w.StageDelta(vb.View, d); err != nil {
			return fmt.Errorf("journal: re-staging %s: %w", vb.View, err)
		}
	}
	return nil
}

// BatchDigest fingerprints a journaled batch, order-independently within
// each view and dependent on view assignment.
func BatchDigest(batch []ViewBatch) uint64 {
	var h uint64
	var buf [binary.MaxVarintLen64]byte
	for _, vb := range batch {
		var vh uint64
		for _, rc := range vb.Rows {
			crc := crc64.Update(0, crcTable, []byte(rc.Key))
			n := binary.PutVarint(buf[:], rc.Count)
			crc = crc64.Update(crc, crcTable, buf[:n])
			vh ^= crc
		}
		h ^= nameFold(vb.View, vh)
	}
	return h
}

// StateDigest fingerprints the materialized (installed) state of every
// view: the XOR over views of a name-keyed fold of each view's
// order-independent row digest. Pending (uninstalled) changes do not
// contribute — the digest identifies the state a snapshot of the warehouse
// would capture.
//
// Each view's row digest — the XOR over its rows of CRC64(encoded tuple ‖
// varint count) — is kept current by the view's store as rows change, so
// the fold costs O(views) whatever the warehouse holds.
func StateDigest(w *core.Warehouse) uint64 {
	var h uint64
	for _, name := range w.ViewNames() {
		h ^= nameFold(name, w.MustView(name).Digest())
	}
	return h
}

// nameFold binds a per-view digest to the view's name so identical row
// bags on different views do not cancel.
func nameFold(name string, vh uint64) uint64 {
	crc := crc64.Update(0, crcTable, []byte(name))
	var vb [8]byte
	binary.BigEndian.PutUint64(vb[:], vh)
	return crc64.Update(crc, crcTable, vb[:])
}
