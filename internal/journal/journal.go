// Package journal implements the journal, a warehouse's one log: the change
// batches it accepted and the update windows that installed them. An accept
// record holds one batch — a producer's change set, or the batch an operator
// staged for a window. A journaled window writes a Begin record (sequence
// number, planner, execution mode, a fingerprint of the pre-window
// materialized state, the full strategy and the range of accepts it installs),
// one Step record per completed Comp/Inst expression (with the installed
// delta's digest for Inst steps), and a Commit — or an Abort when the window
// failed in-process. A crash leaves the journal with a Begin and some Steps
// but neither Commit nor Abort; package recovery detects that in-flight
// window, restores the pre-window state, re-stages the batch its accepts hold
// and re-executes the strategy, verifying each replayed step against the
// journaled digests.
//
// The grammar is log = { accept | begin { step | accept } [commit | abort] }.
// An accept belongs to no window, not even the one it sits inside, until a
// begin record names it. An operator's window journals its batch as an accept
// of its own (Own) directly before its begin record: installed if the window
// commits or is recovered, void if it aborts or no begin record follows it.
// Any other accept is pending until a committed window that names it installs
// it; a resumed ingester requeues exactly the pending ones (Log.Pending).
//
// Each record is one CRC64-checked frame of the record log (frame.go, which
// the replication log reads and writes through too), so a torn tail — the
// normal artifact of a crash mid-append — is detected and tolerated: ReadLog
// returns every intact record, sets Truncated and reports where the intact
// records end.
//
// Durability. The writer hands every record to the file in one Write as it
// is appended, and syncs after a Begin, a Commit and an Abort — not after a
// Step, which rides the next sync. The begin record's sync runs beside the
// window: Begin starts it and returns, steps are appended while the disk
// works, and Commit, Abort and Wait wait for it to return before anything
// else happens to the window, so a window still waits for the disk twice but
// idles through one of the waits only. An accept is durable once Sync passes
// its end; producers waiting together share one sync, which covers everything
// written before it started, and one sync runs at a time. A window is durable
// when its commit record is, and its begin record — behind its accepts — is
// durable before its closing record is written. A process that dies leaves
// exactly the records it appended. A machine that loses power leaves one of
// four things of the window it interrupted:
//
//   - nothing, or a begin frame cut short or holed — whatever frames follow
//     it. The reader stops at the first frame that fails its CRC and
//     OpenAppend cuts the file there: the window never happened, its batch is
//     still with whoever staged it, and its steps touched only a clone;
//   - the begin record and some prefix of the frames behind it, possibly
//     ending inside a frame — an in-flight window. Recovery re-executes every
//     step the journal does not hold, so lost step records cost redone work
//     and never a different result;
//   - the same and a torn closing record: cut off, an in-flight window;
//   - the whole window, closed.
//
// A closing record without its begin record is not among them, because the
// closing record is not written until the begin record's sync has returned;
// an accept whose Sync had returned is among what any of them keeps.
package journal

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/cowmap"
	"repro/internal/strategy"
)

// The window journal's record types: the type byte of their frames.
const (
	TypeStep   byte = 2
	TypeCommit byte = 3
	TypeAbort  byte = 4
	TypeAccept byte = 5
	TypeBegin  byte = 6
)

// typeBatchBegin is the begin record of journals written before accepts were
// records of their own, which carried its batch: refused, not converted.
const typeBatchBegin byte = 1

var errBatchBegin = errors.New("journal: a begin record that carries its change batch (record type 1): the journal was written before accepted changes were records of their own, and is not read — finish it with the build that wrote it")

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

// Range names accept records by sequence number, Lo through Hi. The zero
// Range names none.
type Range struct{ Lo, Hi uint64 }

// AcceptRecord is one accepted change batch.
type AcceptRecord struct {
	// Seq numbers a journal's accepts from 1, in the order they were appended.
	Seq uint64
	// UnixNano is when the batch was accepted from a stream; 0 for an
	// operator's.
	UnixNano int64
	// Own marks an operator's batch, which the begin record directly behind
	// it names (BeginRecord.Own).
	Own bool
	// Batch holds the changes, one entry per base view.
	Batch []ViewBatch
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
	// BatchDigest fingerprints Batch, the batch the window staged: a replay
	// checks the accepts it names against it.
	BatchDigest uint64
	// Strategy is the full expression sequence of the window.
	Strategy strategy.Strategy
	// Accepts names the accept records whose changes the window installs.
	Accepts Range
	// Own marks an operator's window, which names an accept of its own:
	// Begin writes that accept from Batch, and numbers Accepts.
	Own bool
	// Batch is the change batch the window stages: the entries of the accepts
	// it names, which a reader resolves, in their order.
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
	// UnixNano is the commit's wall-clock time.
	UnixNano int64
	// AcceptUnixNano is when the first accept the window installs was
	// accepted from the stream (0 for operator-invoked windows); Commit sets
	// it. Commit minus accept is the freshness a replica can report against
	// the leader.
	AcceptUnixNano int64
}

// AbortRecord closes a window that failed in-process (the failure was
// observed and handled; nothing is left to recover). A crashed window by
// definition has no Abort.
type AbortRecord struct {
	Reason string
}

// Writer appends records to a journal sink, each as one frame through a
// single Write. Methods are safe for concurrent use (DAG workers journal steps
// as they complete, producers accept changes beside a window). Errors are
// sticky: once a write or a sync has failed the tail of the log may hold part
// of a frame, which would hide whatever was appended behind it, so every
// later call reports the first failure and writes nothing.
type Writer struct {
	mu  sync.Mutex // serializes appends and guards the fields below
	out io.Writer
	err error           // sticky
	ctx context.Context // when non-nil, gates begin and step appends
	// lastAccept is the sequence number of the last accept appended, pending
	// the accepts that no committed window installs and that no window was
	// written for, and open names those of the window last begun; inWindow
	// reports that window has no closing record yet.
	lastAccept uint64
	pending    Accepts
	open       Range
	inWindow   bool
	// latest is the last commit record written, or the one of the log the
	// writer continues.
	latest CommitRecord
	// written counts the bytes appended, durable those a returned sync made
	// durable, and begun is where the last begin record ends.
	written, durable, begun int64
	// syncing is closed when the sync in progress returns; nil when none runs.
	syncing chan struct{}
	// buf is the buffer records are encoded into in place and handed to out
	// from — which, an io.Writer, keeps none of it — reused from record to
	// record. A buffer grown past maxKeptBuffer for a large batch is let go
	// once written.
	buf []byte
}

// maxKeptBuffer is the largest frame buffer a Writer keeps for its next
// record: a window of the repository benchmark's size (tens of kilobytes) is
// journaled without allocating, and an operator's multi-megabyte batch is
// not pinned by the writer after its window.
const maxKeptBuffer = 256 << 10

// keepLocked keeps buf as the writer's buffer unless it is too large to
// keep (w.mu held).
func (w *Writer) keepLocked(buf []byte) {
	if cap(buf) <= maxKeptBuffer {
		w.buf = buf[:0]
	}
}

// NewWriter creates a journal writer appending to out, numbering accepts
// from 1 (Log.Writer continues a log). If out has a Sync() error method (an
// *os.File), it is called after each begin, commit and abort record is
// written, and by Sync. A sync runs while records are written, so out must
// take Write calls beside it as a file does (see the package comment). If out
// has a Shippable(latest CommitRecord) method (package replicate's Log), it is
// called after each record that leaves no window open — an accept between
// windows, a commit or abort record — to say all out holds may ship, with the
// last commit record written or continued behind: an accept written inside a
// window ships with its closing record. A caller that stops using the writer
// with a window open — or closes out — calls Wait first.
func NewWriter(out io.Writer) *Writer { return &Writer{out: out} }

// shipLocked tells out that everything written may ship (w.mu held).
func (w *Writer) shipLocked() {
	if s, ok := w.out.(interface{ Shippable(CommitRecord) }); ok {
		s.Shippable(w.latest)
	}
}

// Err returns the sticky error, if any append or sync has failed.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// appendLocked writes one record, whose payload enc encodes in place into
// the frame, and hands the frame to the sink in one Write (w.mu held).
func (w *Writer) appendLocked(typ byte, enc func([]byte) []byte) error {
	if w.err != nil {
		return w.err
	}
	buf, start := appendFrame(w.buf[:0], typ, enc)
	defer w.keepLocked(buf)
	if _, err := w.out.Write(buf[start:]); err != nil {
		w.err = fmt.Errorf("journal: append: %w", err)
		return w.err
	}
	w.written += int64(len(buf) - start)
	return nil
}

// SetContext attaches ctx to the writer: once ctx is cancelled, Begin and
// Step appends are refused with ctx's error, so a dead window cannot keep
// opening or extending journal windows. Commit and Abort stay exempt — they
// are how an already-executed window closes its journal record, and
// refusing them would manufacture a phantom in-flight window — and so does
// Accept, which no window owns. The refusal is not sticky (the journal tail
// is intact). Pass nil to detach.
func (w *Writer) SetContext(ctx context.Context) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ctx = ctx
}

// Sync returns, with the sticky error, once every record appended before end
// — an offset Accept returned — is durable: it waits for the sync running, and
// starts one if that did not cover end. A sync covers everything appended
// before it started, so callers waiting together share it.
func (w *Writer) Sync(end int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	end = min(end, w.written) // what was not written cannot become durable
	for w.durable < end && w.err == nil {
		if syncing := w.syncing; syncing != nil {
			w.mu.Unlock()
			<-syncing
			w.mu.Lock()
			continue
		}
		syncing, target := make(chan struct{}), w.written
		w.syncing = syncing
		w.mu.Unlock()
		var err error
		if s, ok := w.out.(interface{ Sync() error }); ok { // other sinks have nothing to flush
			err = s.Sync()
		}
		w.mu.Lock()
		if err == nil {
			w.durable = target
		} else if w.err == nil {
			w.err = fmt.Errorf("journal: sync: %w", err)
		}
		w.syncing = nil
		close(syncing)
	}
	return w.err
}

// Wait returns once the last begin record is durable — the sync Begin
// started has returned — with the writer's sticky error: that sync's failure,
// if it failed. Commit and Abort wait by themselves; Wait is for a window that
// gets neither — a crash-class exit leaves the journal in flight — and for
// whoever closes the file.
func (w *Writer) Wait() error {
	w.mu.Lock()
	begun := w.begun
	w.mu.Unlock()
	return w.Sync(begun)
}

// gateLocked refuses a begin or a step once the context is done (w.mu held).
func (w *Writer) gateLocked() error {
	if w.ctx != nil {
		if err := w.ctx.Err(); err != nil {
			return fmt.Errorf("journal: append cancelled: %w", err)
		}
	}
	return nil
}

// Accept appends an accept record numbered after the last one appended, and
// returns it as numbered with the offset where it ends: Sync(end) makes it
// durable.
func (w *Writer) Accept(a AcceptRecord) (AcceptRecord, int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	a, err := w.acceptLocked(a)
	return a, w.written, err
}

func (w *Writer) acceptLocked(a AcceptRecord) (AcceptRecord, error) {
	a.Seq = w.lastAccept + 1
	if err := w.appendLocked(TypeAccept, a.appendTo); err != nil {
		return a, err
	}
	if w.lastAccept = a.Seq; !a.Own {
		w.pending = append(w.pending, a)
	}
	if !w.inWindow {
		w.shipLocked()
	}
	return a, nil
}

// Pending returns the accepts that no committed window installs and that no
// window was written for, in sequence order.
func (w *Writer) Pending() Accepts {
	w.mu.Lock()
	defer w.mu.Unlock()
	return slices.Clone(w.pending)
}

// Begin appends a window-begin record — behind the accept of its own batch
// when b.Own is set — and starts the sync that makes them durable, which
// Commit, Abort or Wait waits for; Begin does not. Without b.Own, every accept
// b names must be pending. Each frame is encoded in place into the writer's
// buffer and handed to the sink in one Write.
func (w *Writer) Begin(b BeginRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.gateLocked(); err != nil {
		return err
	}
	for _, e := range b.Strategy {
		switch e.(type) {
		case strategy.Comp, strategy.Inst:
		default:
			return fmt.Errorf("journal: unknown expression type %T", e)
		}
	}
	if b.Own {
		a, err := w.acceptLocked(AcceptRecord{Own: true, Batch: b.Batch})
		if err != nil {
			return err
		}
		b.Accepts = Range{a.Seq, a.Seq}
	} else if _, err := w.pending.Named(b.Accepts); err != nil {
		return err
	}
	if err := w.appendLocked(TypeBegin, b.appendTo); err != nil {
		return err
	}
	w.open, w.begun, w.inWindow = b.Accepts, w.written, true
	go func(end int64) { _ = w.Sync(end) }(w.begun) // a failure is the sticky error
	return nil
}

// Step appends a completed-step record; it rides the next sync.
func (w *Writer) Step(s StepRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.gateLocked(); err != nil {
		return err
	}
	return w.appendLocked(TypeStep, s.appendTo)
}

// Commit appends a window-commit record, once the window's begin record is
// durable, and syncs it. It stamps the record with when the first accept the
// window installs was accepted, and those accepts are pending no more.
func (w *Writer) Commit(c CommitRecord) error {
	return w.close(TypeCommit, func() func([]byte) []byte {
		c.AcceptUnixNano = 0
		if named, _ := w.pending.Named(w.open); len(named) > 0 {
			c.AcceptUnixNano = named[0].UnixNano
		}
		w.pending = w.pending.Without(w.open)
		w.latest = c
		return c.appendTo
	})
}

// Abort appends a window-abort record, once the window's begin record is
// durable, and syncs it.
func (w *Writer) Abort(a AbortRecord) error {
	return w.close(TypeAbort, func() func([]byte) []byte {
		return func(p []byte) []byte { return AppendString(p, a.Reason) }
	})
}

// close appends a window's closing record, whose payload encoder record
// returns (called with w.mu held), behind its durable begin record and
// syncs it.
func (w *Writer) close(typ byte, record func() func([]byte) []byte) error {
	if err := w.Wait(); err != nil {
		return err
	}
	w.mu.Lock()
	err := w.appendLocked(typ, record())
	if err == nil {
		w.inWindow = false
		w.shipLocked()
	}
	end := w.written
	w.mu.Unlock()
	if err != nil {
		return err
	}
	return w.Sync(end)
}

// The payload encoders, each appending a record's payload in place
// (appendFrame).

func (a AcceptRecord) appendTo(p []byte) []byte {
	p = binary.AppendUvarint(p, a.Seq)
	p = binary.AppendVarint(p, a.UnixNano)
	var flags byte
	if a.Own {
		flags = 1
	}
	p = binary.AppendUvarint(append(p, flags), uint64(len(a.Batch)))
	for _, vb := range a.Batch {
		p = AppendRows(AppendString(p, vb.View), vb.Rows)
	}
	return p
}

func (b BeginRecord) appendTo(p []byte) []byte {
	p = binary.AppendUvarint(p, uint64(b.Seq))
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
		}
	}
	p = binary.AppendUvarint(p, b.Accepts.Lo)
	return binary.AppendUvarint(p, b.Accepts.Hi)
}

func (c CommitRecord) appendTo(p []byte) []byte {
	p = binary.AppendVarint(p, c.TotalWork)
	p = binary.AppendVarint(p, c.ElapsedNS)
	p = binary.AppendVarint(p, c.UnixNano)
	return binary.AppendVarint(p, c.AcceptUnixNano)
}

func (s StepRecord) appendTo(p []byte) []byte {
	p = binary.AppendUvarint(p, uint64(s.Index))
	p = AppendString(p, s.Key)
	p = binary.AppendVarint(p, s.Work)
	p = binary.AppendUvarint(p, uint64(s.Terms))
	var flags byte
	if s.Skipped {
		flags = 1
	}
	return binary.BigEndian.AppendUint64(append(p, flags), s.Digest)
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
	// asm holds the window Feed has open, and the accepts; Windows ends with
	// a copy of the open window.
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

// Pending returns the log's accepts that no committed window installs and
// that no window was written for, in sequence order — those an in-flight
// window names among them, which its recovery installs.
func (lg *Log) Pending() Accepts { return slices.Clone(lg.asm.held) }

// LastAccept is the sequence number of the log's last accept record: how
// many it holds, in a log read from its start.
func (lg *Log) LastAccept() uint64 { return lg.asm.last }

// Writer returns a writer that appends to out behind the log's records: it
// numbers accepts after the log's last, holds its pending ones, closes its
// in-flight window, and tells out the log's last commit record until it
// writes one.
func (lg *Log) Writer(out io.Writer) *Writer {
	w := NewWriter(out)
	w.lastAccept, w.pending = lg.asm.last, lg.Pending()
	if wl := lg.InFlight(); wl != nil {
		w.open, w.inWindow = wl.Begin.Accepts, true
	}
	for i := len(lg.Windows) - 1; i >= 0; i-- {
		if c := lg.Windows[i].Commit; c != nil {
			w.latest = *c
			break
		}
	}
	return w
}

// ReadLog parses a journal file's bytes, and is where the file reader's two
// leniencies are: a torn or corrupt tail — an unknown record type included —
// is dropped (ScanFile; Truncated is set and Size is where it begins), and an
// unclosed window followed by a new begin is kept, as abandoned (Feed). A
// CRC-valid record that fails to decode, a record outside any window, a begin
// record that names an accept the log does not hold pending, and a begin
// record from before accepts were records of their own are format errors.
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
// abort, as if it had aborted. A process that died mid-window and was
// restarted without recovery leaves that, and only the last window can be in
// flight.
func (lg *Log) Feed(typ byte, payload []byte, _ int) error {
	if typ == TypeBegin {
		lg.asm.cur = nil
	}
	wl, err := lg.asm.Feed(typ, payload)
	switch {
	case err != nil:
		return err
	case typ == TypeAccept:
	case typ == TypeBegin:
		lg.Windows = append(lg.Windows, *lg.asm.cur)
	default:
		if wl == nil {
			wl = lg.asm.cur
		}
		lg.Windows[len(lg.Windows)-1] = *wl
	}
	return nil
}

// Accepts is a list of accept records in sequence order.
type Accepts []AcceptRecord

// Named returns the records r names, every one of which the list must hold.
func (as Accepts) Named(r Range) (Accepts, error) {
	if r == (Range{}) {
		return nil, nil
	}
	i, _ := slices.BinarySearchFunc(as, r.Lo, func(a AcceptRecord, seq uint64) int { return cmp.Compare(a.Seq, seq) })
	n := r.Hi - r.Lo + 1
	if r.Lo == 0 || r.Hi < r.Lo || uint64(len(as)-i) < n || as[i].Seq != r.Lo || as[i+int(n)-1].Seq != r.Hi {
		return nil, fmt.Errorf("journal: accepts %d to %d are not all held uninstalled", r.Lo, r.Hi)
	}
	return as[i : i+int(n) : i+int(n)], nil
}

// Without returns the list without the records r names; it reuses the list's
// storage.
func (as Accepts) Without(r Range) Accepts {
	return slices.DeleteFunc(as, func(a AcceptRecord) bool { return a.Seq >= r.Lo && a.Seq <= r.Hi })
}

// Assembler folds a sequence of records into windows — the one place that
// does. Feed it each record in log order; it returns the completed WindowLog
// when a commit or abort record closes the open window, nil otherwise. It
// holds the accepts no committed window has installed, and resolves the range
// a begin record names into the window's batch. Records that violate the
// grammar (a step outside any window, a begin inside an open one, a begin
// naming an accept it does not hold, an accept out of sequence) are errors:
// on a verified stream they indicate a protocol bug, not line noise.
type Assembler struct {
	cur *WindowLog
	// held are the accepts fed that are neither installed nor an operator's,
	// in sequence order.
	held Accepts
	// own is the operator's accept just fed, which the next record, if it is
	// its window's begin record, names.
	own *AcceptRecord
	// last is the sequence number of the last accept fed, and begun what it
	// was when the open window began.
	last, begun uint64
}

// InFlight reports whether a window is open (a begin has been fed without
// its commit or abort).
func (a *Assembler) InFlight() bool { return a.cur != nil }

// Reset discards a partially assembled window and the accepts fed inside it —
// used when the stream position is rewound to where the window began (e.g. a
// corrupt chunk is dropped and re-fetched), so they are fed again. An
// operator's accept fed just before the rewind point stays, for its begin
// record to name when that is fed again.
func (a *Assembler) Reset() {
	if b := a.cur; b != nil {
		a.held = slices.DeleteFunc(a.held, func(acc AcceptRecord) bool { return acc.Seq > a.begun })
		if a.cur, a.last = nil, a.begun; b.Begin.Own {
			a.own = &AcceptRecord{Seq: b.Begin.Accepts.Lo, Own: true, Batch: b.Begin.Batch}
		}
	}
}

// Feed consumes one record. When the record closes a window, the assembled
// WindowLog is returned and the assembler becomes idle. A type the window
// journal does not have wraps ErrCorruptFrame.
func (a *Assembler) Feed(typ byte, payload []byte) (*WindowLog, error) {
	switch {
	case typ == typeBatchBegin:
		return nil, errBatchBegin
	case typ < TypeStep || typ > TypeBegin:
		return nil, fmt.Errorf("%w: unknown record type %d", ErrCorruptFrame, typ)
	case typ == TypeBegin && a.cur != nil:
		return nil, fmt.Errorf("journal: begin record arrived inside open window %d", a.cur.Begin.Seq)
	case typ != TypeBegin && typ != TypeAccept && a.cur == nil:
		return nil, fmt.Errorf("journal: %s record outside any window", [...]string{TypeStep: "step", TypeCommit: "commit", TypeAbort: "abort"}[typ])
	}
	own := a.own
	a.own = nil
	switch typ {
	case TypeAccept:
		rec, err := decodeAccept(payload)
		if err != nil {
			return nil, err
		}
		if a.last != 0 && rec.Seq != a.last+1 {
			return nil, fmt.Errorf("journal: accept %d follows accept %d", rec.Seq, a.last)
		}
		a.last = rec.Seq
		if rec.Own {
			a.own = &rec
		} else {
			a.held = append(a.held, rec)
		}
		return nil, nil
	case TypeBegin:
		b, err := decodeBegin(payload)
		if err != nil {
			return nil, err
		}
		var named Accepts
		if own != nil && b.Accepts == (Range{own.Seq, own.Seq}) {
			named, b.Own = Accepts{*own}, true
		} else if named, err = a.held.Named(b.Accepts); err != nil {
			return nil, fmt.Errorf("journal: window %d's begin record: %w", b.Seq, err)
		}
		for _, acc := range named {
			b.Batch = append(b.Batch, acc.Batch...)
		}
		a.cur, a.begun = &WindowLog{Begin: b}, a.last
		return nil, nil
	case TypeStep:
		s, err := decodeStep(payload)
		if err != nil {
			return nil, err
		}
		a.cur.Steps = append(a.cur.Steps, s)
		return nil, nil
	case TypeCommit:
		c, err := decodeCommit(payload)
		if err != nil {
			return nil, err
		}
		a.cur.Commit = &c
		a.held = a.held.Without(a.cur.Begin.Accepts)
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

func decodeAccept(p []byte) (AcceptRecord, error) {
	c := NewCursor("journal: accept", p)
	a := AcceptRecord{Seq: c.Uvarint("seq"), UnixNano: c.Varint("time"), Own: c.Byte("flags")&1 != 0}
	for i, n := 0, c.Count("view count"); i < n && c.err == nil; i++ {
		a.Batch = append(a.Batch, ViewBatch{View: c.String("view"), Rows: c.Rows("row")})
	}
	if a.Seq == 0 {
		c.Fail("seq", errors.New("accepts are numbered from 1"))
	}
	return a, c.Done()
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
	b.Accepts = Range{Lo: c.Uvarint("accepts from"), Hi: c.Uvarint("accepts to")}
	if r := b.Accepts; (r.Lo == 0) != (r.Hi == 0) || r.Hi < r.Lo {
		c.Fail("accept range", fmt.Errorf("%d to %d names no accepts", r.Lo, r.Hi))
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

func decodeCommit(p []byte) (CommitRecord, error) {
	c := NewCursor("journal: commit", p)
	rec := CommitRecord{TotalWork: c.Varint("work"), ElapsedNS: c.Varint("elapsed"), UnixNano: c.Varint("time"), AcceptUnixNano: c.Varint("accept time")}
	return rec, c.Done()
}

// BatchDigest fingerprints a journaled batch: the sum over its rows of the
// count times a hash of view and key. It depends on view assignment and not
// on order, nor on how a view's rows are split among entries, so the batch a
// window stages digests as the entries of the accepts it names do.
func BatchDigest(batch []ViewBatch) uint64 {
	var h uint64
	for _, vb := range batch {
		seed := ViewSeed(vb.View)
		for _, rc := range vb.Rows {
			h += RowDigest(seed, rc.Key, rc.Count)
		}
	}
	return h
}

// ViewSeed is the hash BatchDigest continues over each of a view's keys:
// the CRC-64/ECMA of the view's name and a 0 byte.
func ViewSeed(view string) uint64 { return cowmap.Extend(cowmap.Hash(view), []byte{0}) }

// RowDigest is one row's term of BatchDigest: the count times the CRC of
// the view's seed continued over the key. A batch's digest is the sum of
// its rows' terms, in any order.
func RowDigest(seed uint64, key string, count int64) uint64 {
	return uint64(count) * cowmap.ExtendString(seed, key)
}
