// Package journal implements the journal, a warehouse's one log: the change
// batches it accepted and the update windows that installed them. An accept
// record holds one batch — a producer's change set, or the batch an operator
// staged for a window. A journaled window writes a Begin record (sequence
// number, planner, execution mode, a fingerprint of the pre-window
// materialized state, the full strategy and the range of accepts it installs)
// and a Commit, which holds one step record per Comp/Inst expression of the
// strategy (with the installed delta's digest for Inst steps) — or an Abort
// when the window failed in-process. A crash leaves the journal with a Begin
// but neither Commit nor Abort; package recovery detects that in-flight
// window, restores the pre-window state, re-stages the batch its accepts hold
// and re-executes the strategy.
//
// The grammar is log = { accept | begin { accept } [commit | abort] }.
// An accept belongs to no window, not even the one it sits inside, until a
// begin record names it. An operator's window journals its batch as an accept
// of its own (Own) directly before its begin record: installed if the window
// commits or is recovered, void if it aborts or no begin record follows it.
// Any other accept is pending until a committed window that names it installs
// it; a resumed ingester requeues exactly the pending ones (Log.Pending).
//
// Each record is one CRC64-checked frame of the record log (frame.go, which
// the replication log reads and writes through too), so a torn tail — the
// normal artifact of a crash mid-append — is detected and tolerated. A
// journal file is read as a stream, through one buffer of at most 1 MiB
// (ScanReader), into a Fold: the state a writer continuing the log needs —
// the committed count, the last commit record, the last accept, the pending
// accepts and the in-flight window — and no closed window, so a reopen holds
// what the log comes to, not the log. The fold stops at the torn tail, sets
// Truncated and reports where the intact records end. ReadLog is the same
// read, keeping every window.
//
// Durability. The writer hands every record to the file in one Write as it
// is appended, and syncs after a Begin and an Abort — not after a Commit,
// which rides the next sync. The begin record's sync runs beside the window:
// Begin starts it and returns, the steps run while the disk works, and
// Commit, Abort and Wait wait for it to return before anything else happens
// to the window, so a committed window waits for the disk once, and only for
// the part of that flush its steps did not outlast. An accept is durable once
// Sync passes its end; producers waiting together share one sync, which
// covers everything written before it started, and one sync runs at a time.
// A window is recoverable once its begin record — behind its accepts — is
// durable, because that record holds everything a re-execution needs. A
// commit record only saves the re-execution: it is appended once the begin
// record's sync has returned, and made durable by the next sync, whoever
// starts it (the next window's begin, an abort, an accept's Sync, or whoever
// closes the file). An abort record is synced before Abort returns, because a
// caller told a window aborted may stage its batch again, and recovery must
// then never complete it. A process that dies leaves exactly the records it
// appended. A machine that loses power leaves one of four things of the last
// window begun:
//
//   - nothing, or a begin frame cut short or holed — whatever frames follow
//     it. The reader stops at the first frame that fails its CRC and
//     OpenAppend cuts the file there: the window never happened, its batch is
//     still with whoever staged it, and its steps touched only a clone;
//   - the begin record — an in-flight window, which recovery re-executes;
//   - the same and a torn or lost closing record: an in-flight window, which
//     recovery completes. A window whose Commit had returned is completed to
//     the state it returned; one whose Abort had returned is not among them,
//     because Abort returns only once its record is durable;
//   - the whole window, closed.
//
// A closing record without its begin record is not among them, because the
// closing record is not written until the begin record's sync has returned;
// an accept whose Sync had returned is among what any of them keeps, and so
// is every record in front of a begin record whose sync had returned.
package journal

import (
	"bytes"
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
	TypeAbort  byte = 4
	TypeAccept byte = 5
	TypeBegin  byte = 6
	TypeCommit byte = 7
)

// The record types of older journals, refused and not converted: a begin
// record that carried its batch, from before accepts were records of their
// own, and a step record and a commit record without steps, from before a
// window's step records rode its commit record.
const (
	typeBatchBegin byte = 1
	typeStep       byte = 2
	typeStepCommit byte = 3
)

var (
	errBatchBegin = errors.New("journal: a begin record that carries its change batch (record type 1): the journal was written before accepted changes were records of their own, and is not read — finish it with the build that wrote it")
	errStepFrames = errors.New("journal: a step record or a commit record without steps (record type 2 or 3): the journal was written before a window's step records rode its commit record, and is not read — finish it with the build that wrote it")
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

// StepRecord is one completed expression of a committed window.
type StepRecord struct {
	// Key is the expression's strategy key (sanity cross-check).
	Key string
	// Work is the step's measured work (operand tuples for Comp, rows
	// installed for Inst).
	Work int64
	// Terms is the Comp's maintenance-term count (0 for Inst).
	Terms int
	// Skipped marks a Comp elided by the empty-delta optimization.
	Skipped bool
	// Digest fingerprints the delta an Inst step installed; 0 for a Comp
	// step. A replay over the same store history folds float aggregates in
	// the same order, so it digests them bit for bit too.
	Digest uint64
}

// CommitRecord closes a window successfully.
type CommitRecord struct {
	// TotalWork is the window's measured work.
	TotalWork int64
	// ElapsedNS is the window's wall-clock duration in nanoseconds. It and
	// the two times below are written eight bytes wide, so a commit record's
	// length does not depend on them.
	ElapsedNS int64
	// UnixNano is the commit's wall-clock time.
	UnixNano int64
	// AcceptUnixNano is when the first accept the window installs was
	// accepted from the stream (0 for operator-invoked windows); Commit sets
	// it. Commit minus accept is the freshness a replica can report against
	// the leader.
	AcceptUnixNano int64
	// Steps holds one record per expression of the begin record's strategy,
	// in strategy order; none for a window that recomputed its views
	// (mode "recompute").
	Steps []StepRecord
}

// AbortRecord closes a window that failed in-process (the failure was
// observed and handled; nothing is left to recover). A crashed window by
// definition has no Abort.
type AbortRecord struct {
	Reason string
}

// Writer appends records to a journal sink, each as one frame through a
// single Write. Methods are safe for concurrent use (producers accept changes
// beside a window). Errors are
// sticky: once a write or a sync has failed the tail of the log may hold part
// of a frame, which would hide whatever was appended behind it, so every
// later call reports the first failure and writes nothing.
type Writer struct {
	mu  sync.Mutex // serializes appends and guards the fields below
	out io.Writer
	err error           // sticky
	ctx context.Context // when non-nil, gates begin appends
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
// *os.File), it is called after each begin and abort record is written, and
// by Sync. A sync runs while records are written, so out must
// take Write calls beside it as a file does (see the package comment). If out
// has a Shippable(latest CommitRecord) method (package replicate's Log), it is
// called after each record that leaves no window open — an accept between
// windows, a commit or abort record — to say all out holds may ship, with the
// last commit record written or continued behind: an accept written inside a
// window ships with its closing record. A caller that stops using the writer
// with a window open calls Wait first, and one that closes out calls Sync
// past the end of what was written — math.MaxInt64 — so that a commit record
// no later sync covered reaches the disk.
func NewWriter(out io.Writer) *Writer { return &Writer{out: out} }

// shipLocked tells out that everything written may ship (w.mu held).
func (w *Writer) shipLocked() {
	if s, ok := w.out.(interface{ Shippable(CommitRecord) }); ok {
		s.Shippable(w.latest)
	}
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

// SetContext attaches ctx to the writer: once ctx is cancelled, Begin is
// refused with ctx's error, so a dead window cannot open a journal window.
// Commit and Abort stay exempt — they are how an already-executed window
// closes its journal record, and refusing them would manufacture a phantom
// in-flight window — and so does Accept, which no window owns. The refusal is
// not sticky (the journal tail is intact). Pass nil to detach.
func (w *Writer) SetContext(ctx context.Context) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ctx = ctx
}

// Sync returns, with the sticky error, once every record appended before end
// — an offset Accept returned, or math.MaxInt64 for every record — is
// durable: it waits for the sync running, and starts one if that did not
// cover end. A sync covers everything appended before it started, so callers
// waiting together share it.
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
// gets neither — a crash-class exit leaves the journal in flight.
func (w *Writer) Wait() error {
	w.mu.Lock()
	begun := w.begun
	w.mu.Unlock()
	return w.Sync(begun)
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
	if w.ctx != nil && w.ctx.Err() != nil {
		return fmt.Errorf("journal: append cancelled: %w", w.ctx.Err())
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

// Commit appends a window-commit record, once the window's begin record is
// durable, and returns without syncing it: the window is recoverable from
// its begin record, and the commit record rides the next sync. It stamps the
// record with when the first accept the window installs was accepted, and
// those accepts are pending no more.
func (w *Writer) Commit(c CommitRecord) error {
	_, err := w.close(TypeCommit, func() func([]byte) []byte {
		c.AcceptUnixNano = 0
		if named, _ := w.pending.Named(w.open); len(named) > 0 {
			c.AcceptUnixNano = named[0].UnixNano
		}
		w.pending = w.pending.Without(w.open)
		w.latest = c
		return c.appendTo
	})
	return err
}

// Abort appends a window-abort record, once the window's begin record is
// durable, and syncs it: a window reported aborted is never recovered.
func (w *Writer) Abort(a AbortRecord) error {
	end, err := w.close(TypeAbort, func() func([]byte) []byte {
		return func(p []byte) []byte { return AppendString(p, a.Reason) }
	})
	if err != nil {
		return err
	}
	return w.Sync(end)
}

// close appends a window's closing record, whose payload encoder record
// returns (called with w.mu held), behind its durable begin record, and
// returns where it ends.
func (w *Writer) close(typ byte, record func() func([]byte) []byte) (int64, error) {
	if err := w.Wait(); err != nil {
		return 0, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendLocked(typ, record()); err != nil {
		return 0, err
	}
	w.inWindow = false
	w.shipLocked()
	return w.written, nil
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
	p = binary.BigEndian.AppendUint64(p, uint64(c.ElapsedNS))
	p = binary.BigEndian.AppendUint64(p, uint64(c.UnixNano))
	p = binary.BigEndian.AppendUint64(p, uint64(c.AcceptUnixNano))
	p = binary.AppendUvarint(p, uint64(len(c.Steps)))
	for _, s := range c.Steps {
		p = AppendString(p, s.Key)
		p = binary.AppendVarint(p, s.Work)
		p = binary.AppendUvarint(p, uint64(s.Terms))
		var flags byte
		if s.Skipped {
			flags = 1
		}
		p = binary.BigEndian.AppendUint64(append(p, flags), s.Digest)
	}
	return p
}

// WindowLog is one window's records as read back from a journal.
type WindowLog struct {
	Begin  BeginRecord
	Commit *CommitRecord
	Abort  *AbortRecord
}

// Committed reports whether the window closed successfully.
func (wl *WindowLog) Committed() bool { return wl.Commit != nil }

// Closed reports whether the window finished (committed or aborted).
func (wl *WindowLog) Closed() bool { return wl.Commit != nil || wl.Abort != nil }

// Fold is a journal read from its start and folded as it is read (Bayou's
// rule: the state is the log applied in order). It holds what a writer
// continuing the log needs — how many windows committed, the last commit
// record, the last accept's sequence number, the accepts pending and the
// window in flight — and no closed window. Every record is checked as it is
// read, but a record is kept as its payload and decoded whole only when
// asked for: the last commit record by Writer, the in-flight window by
// InFlight, and an accept's rows by Pending and InFlight. OnClose, when set,
// is handed each window as the log closes it, decoded whole with its batch.
//
// Read folds a reader; OpenAppend folds a file it opens, with Feed and
// Detach. The file reader's two leniencies are here: a torn or corrupt tail
// — an unknown record type included — is dropped (ScanReader; Truncated is
// set and Size is where it begins), and an unclosed window followed by a new
// begin is abandoned, as if it had aborted: a process that died mid-window
// and was restarted without recovery leaves that, and only the last window
// can be in flight. A CRC-valid record that fails to decode, a record
// outside any window, a begin record that names an accept the log does not
// hold pending, and a begin record from before accepts were records of
// their own are format errors.
type Fold struct {
	// OnClose, when set, is handed every window the log closes — by its
	// commit or abort record, or by a begin record that abandons it — in log
	// order, with its batch; its error stops the read.
	OnClose func(*WindowLog) error
	// Truncated reports that the journal ended in a torn or corrupt frame
	// (dropped); the expected artifact of a crash mid-append.
	Truncated bool
	// Size is the length in bytes of the intact records: where a torn tail
	// begins. A file is cut back to it before anything is appended
	// (OpenAppend), or the torn frame would hide every later record from the
	// next reader.
	Size int64

	asm       Assembler
	committed int
	latest    kept // the last commit record's payload
}

// Read folds the journal in, from its start (ScanReader).
func (f *Fold) Read(in io.Reader) error {
	var err error
	f.Size, f.Truncated, err = ScanReader(in, f.Feed, f.Detach)
	return err
}

// Feed folds the next record of a journal file: ScanReader's callback.
func (f *Fold) Feed(typ byte, payload []byte, _ int) error {
	whole := f.OnClose != nil
	if typ == TypeBegin && f.asm.cur != nil { // the open window is abandoned
		if whole {
			if err := f.OnClose(f.asm.open()); err != nil {
				return err
			}
		}
		f.asm.cur = nil
	}
	wl, err := f.asm.feed(typ, payload, whole)
	if err != nil || wl == nil {
		return err
	}
	if wl.Committed() {
		f.committed++
		f.latest = kept{p: payload}
	}
	if !whole {
		return nil
	}
	return f.OnClose(wl)
}

// Detach copies the payloads the fold keeps out of the bytes it was fed:
// ScanReader's reuse, called before it refills its buffer.
func (f *Fold) Detach() {
	f.asm.Detach()
	f.latest.detach()
}

// CommittedCount returns how many windows committed.
func (f *Fold) CommittedCount() int { return f.committed }

// InFlight returns the journal's in-flight window, with its batch: a last
// window that has neither Commit nor Abort — the signature of a crash. nil
// when there is none.
func (f *Fold) InFlight() *WindowLog {
	if f.asm.cur == nil {
		return nil
	}
	return f.asm.open()
}

// Pending returns the log's accepts that no committed window installs and
// that no window was written for, in sequence order — those an in-flight
// window names among them, which its recovery installs.
func (f *Fold) Pending() Accepts {
	pending := make(Accepts, len(f.asm.held))
	for i, h := range f.asm.held {
		pending[i] = h.record()
	}
	return pending
}

// LastAccept is the sequence number of the log's last accept record: how
// many it holds, in a log read from its start.
func (f *Fold) LastAccept() uint64 { return f.asm.last }

// Writer returns a writer that appends to out behind the log's records: it
// numbers accepts after the log's last, holds its pending ones, closes its
// in-flight window, and tells out the log's last commit record until it
// writes one.
func (f *Fold) Writer(out io.Writer) *Writer {
	w := NewWriter(out)
	w.lastAccept, w.pending = f.asm.last, f.Pending()
	if f.latest.p != nil {
		w.latest, _ = decodeCommit(f.latest.p, true) // checked as it was read
	}
	if cur := f.asm.cur; cur != nil {
		w.open, w.inWindow = cur.Begin.Accepts, true
	}
	return w
}

// Log is the parsed content of a journal: its fold, and every window.
type Log struct {
	Windows []WindowLog
	Fold
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

// ReadLog parses a journal file's bytes through the fold a file's reader
// folds (Fold, whose leniencies and format errors it has), and keeps every
// window, each with its batch: the closed ones as they close, and the one in
// flight.
func ReadLog(in io.Reader) (Log, error) {
	var lg Log
	lg.OnClose = func(wl *WindowLog) error {
		lg.Windows = append(lg.Windows, *wl)
		return nil
	}
	err := lg.Read(in)
	lg.OnClose = nil
	if wl := lg.Fold.InFlight(); err == nil && wl != nil {
		lg.Windows = append(lg.Windows, *wl)
	}
	return lg, err
}

// Accepts is a list of accept records in sequence order.
type Accepts []AcceptRecord

// Named returns the records r names, every one of which the list must hold.
func (as Accepts) Named(r Range) (Accepts, error) {
	return named(as, r, func(a AcceptRecord) uint64 { return a.Seq })
}

// named returns the items of list, in sequence order, whose sequence
// numbers r names; list must hold every one.
func named[T any](list []T, r Range, seq func(T) uint64) ([]T, error) {
	if r == (Range{}) {
		return nil, nil
	}
	i, _ := slices.BinarySearchFunc(list, r.Lo, func(a T, s uint64) int { return cmp.Compare(seq(a), s) })
	n := r.Hi - r.Lo + 1
	if r.Lo == 0 || r.Hi < r.Lo || uint64(len(list)-i) < n || seq(list[i]) != r.Lo || seq(list[i+int(n)-1]) != r.Hi {
		return nil, fmt.Errorf("journal: accepts %d to %d are not all held uninstalled", r.Lo, r.Hi)
	}
	return list[i : i+int(n) : i+int(n)], nil
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
// grammar (a commit outside any window, a begin inside an open one, a begin
// naming an accept it does not hold, an accept out of sequence) are errors:
// on a verified stream they indicate a protocol bug, not line noise.
//
// An accept is kept as the payload it was fed, which it aliases, and its
// rows are decoded only into the batch of a window that names it; so is the
// open window's begin record: a caller that overwrites bytes it fed calls
// Detach first.
type Assembler struct {
	cur *WindowLog
	// begin is the payload of the open window's begin record.
	begin kept
	// held are the accepts fed that are neither installed nor an operator's,
	// in sequence order.
	held []heldAccept
	// own is the operator's accept just fed, which the next record, if it is
	// its window's begin record, names; curOwn is the one the open window
	// names. Seq 0 is none.
	own, curOwn heldAccept
	// last is the sequence number of the last accept fed, and begun what it
	// was when the open window began.
	last, begun uint64
}

// kept is a record's payload as it was fed, aliasing the bytes it came in
// until detach copies it.
type kept struct {
	p        []byte
	detached bool // p is the holder's own copy
}

func (k *kept) detach() {
	if k.p != nil && !k.detached {
		k.p, k.detached = bytes.Clone(k.p), true
	}
}

// heldAccept is an accept record as fed: its head decoded, its changes still
// in its payload.
type heldAccept struct {
	head AcceptRecord // no Batch
	kept
}

// record decodes the accept, which Feed checked.
func (h heldAccept) record() AcceptRecord {
	rec, _ := decodeAccept(h.p, true)
	return rec
}

func heldSeq(h heldAccept) uint64 { return h.head.Seq }

// Detach copies every payload the Assembler keeps out of the bytes it was
// fed.
func (a *Assembler) Detach() {
	for i := range a.held {
		a.held[i].detach()
	}
	a.own.detach()
	a.curOwn.detach()
	a.begin.detach()
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
		a.held = slices.DeleteFunc(a.held, func(h heldAccept) bool { return h.head.Seq > a.begun })
		if a.cur, a.last = nil, a.begun; b.Begin.Own {
			a.own = a.curOwn
		}
	}
}

// open returns the open window decoded whole, with its batch: the changes of
// the accepts it names, in their order.
func (a *Assembler) open() *WindowLog {
	wl := *a.cur
	wl.Begin, _ = decodeBegin(a.begin.p, true) // checked as it was fed
	wl.Begin.Own = a.cur.Begin.Own
	names := []heldAccept{a.curOwn}
	if !wl.Begin.Own {
		names, _ = named(a.held, wl.Begin.Accepts, heldSeq)
	}
	for _, h := range names {
		wl.Begin.Batch = append(wl.Begin.Batch, h.record().Batch...)
	}
	return &wl
}

// Feed consumes one record. When the record closes a window, the assembled
// WindowLog is returned, with its batch, and the assembler becomes idle. A
// type the window journal does not have wraps ErrCorruptFrame.
func (a *Assembler) Feed(typ byte, payload []byte) (*WindowLog, error) {
	return a.feed(typ, payload, true)
}

// feed is Feed, which returns the window it closes decoded whole only when
// whole is set: otherwise its records are checked, and the window carries
// what the grammar reads — its sequence number, the accepts it names, whether
// it committed — and no strategy, batch or step.
func (a *Assembler) feed(typ byte, payload []byte, whole bool) (*WindowLog, error) {
	switch {
	case typ == typeBatchBegin:
		return nil, errBatchBegin
	case typ == typeStep || typ == typeStepCommit:
		return nil, errStepFrames
	case typ < TypeAbort || typ > TypeCommit:
		return nil, fmt.Errorf("%w: unknown record type %d", ErrCorruptFrame, typ)
	case typ == TypeBegin && a.cur != nil:
		return nil, fmt.Errorf("journal: begin record arrived inside open window %d", a.cur.Begin.Seq)
	case typ != TypeBegin && typ != TypeAccept && a.cur == nil:
		return nil, fmt.Errorf("journal: %s record outside any window", [...]string{TypeAbort: "abort", TypeCommit: "commit"}[typ])
	}
	own := a.own
	a.own = heldAccept{}
	switch typ {
	case TypeAccept:
		rec, err := decodeAccept(payload, false)
		if err != nil {
			return nil, err
		}
		if a.last != 0 && rec.Seq != a.last+1 {
			return nil, fmt.Errorf("journal: accept %d follows accept %d", rec.Seq, a.last)
		}
		a.last = rec.Seq
		if h := (heldAccept{head: rec, kept: kept{p: payload}}); rec.Own {
			a.own = h
		} else {
			a.held = append(a.held, h)
		}
		return nil, nil
	case TypeBegin:
		b, err := decodeBegin(payload, false)
		if err != nil {
			return nil, err
		}
		a.curOwn = heldAccept{}
		if own.head.Seq != 0 && b.Accepts == (Range{own.head.Seq, own.head.Seq}) {
			a.curOwn, b.Own = own, true
		} else if _, err = named(a.held, b.Accepts, heldSeq); err != nil {
			return nil, fmt.Errorf("journal: window %d's begin record: %w", b.Seq, err)
		}
		a.cur, a.begin, a.begun = &WindowLog{Begin: b}, kept{p: payload}, a.last
		return nil, nil
	}
	var c CommitRecord
	var ab AbortRecord
	var err error
	if typ == TypeCommit {
		c, err = decodeCommit(payload, whole)
	} else {
		cur := NewCursor("journal: abort", payload)
		ab = AbortRecord{Reason: cur.String("reason")}
		err = cur.Done()
	}
	if err != nil {
		return nil, err
	}
	wl := a.cur
	if whole {
		wl = a.open()
	}
	if typ == TypeCommit {
		wl.Commit = &c
		r := wl.Begin.Accepts
		a.held = slices.DeleteFunc(a.held, func(h heldAccept) bool { return h.head.Seq >= r.Lo && h.head.Seq <= r.Hi })
	} else {
		wl.Abort = &ab
	}
	a.cur, a.begin, a.curOwn = nil, kept{}, heldAccept{}
	return wl, nil
}

// decodeAccept decodes an accept record, with its rows when rows is set;
// without, it checks that they decode and keeps none.
func decodeAccept(p []byte, rows bool) (AcceptRecord, error) {
	c := NewCursor("journal: accept", p)
	a := AcceptRecord{Seq: c.Uvarint("seq"), UnixNano: c.Varint("time"), Own: c.Byte("flags")&1 != 0}
	for i, n := 0, c.Count("view count"); i < n && c.err == nil; i++ {
		if rows {
			a.Batch = append(a.Batch, ViewBatch{View: c.String("view"), Rows: c.Rows("row")})
		} else {
			c.Bytes("view")
			c.skipRows("row")
		}
	}
	if a.Seq == 0 {
		c.Fail("seq", errors.New("accepts are numbered from 1"))
	}
	return a, c.Done()
}

// decodeBegin decodes a begin record; without whole, it checks that the
// record decodes and keeps its sequence number, flags and accept range, and
// no string or strategy.
func decodeBegin(p []byte, whole bool) (BeginRecord, error) {
	c := NewCursor("journal: begin", p)
	str := func(field string) string {
		if whole {
			return c.String(field)
		}
		c.Bytes(field)
		return ""
	}
	var b BeginRecord
	b.Seq = int(c.Uvarint("seq"))
	b.Planner = str("planner")
	b.Mode = str("mode")
	b.Workers = int(c.Uvarint("workers"))
	flags := c.Byte("flags")
	b.SkipEmptyDeltas, b.ProbeWork = flags&1 != 0, flags&2 != 0
	b.StateDigest = c.Uint64("state digest")
	b.BatchDigest = c.Uint64("batch digest")
	n := c.Count("strategy length")
	if whole && n > 0 {
		b.Strategy = make(strategy.Strategy, 0, min(n, 64))
	}
	for i := 0; i < n && c.err == nil; i++ {
		var e strategy.Expr
		switch kind, view := c.Byte("expr kind"), str("expr view"); kind {
		case 0:
			nOver := c.Count("comp over count")
			var over []string
			if whole {
				over = make([]string, 0, min(nOver, 64))
			}
			for j := 0; j < nOver && c.err == nil; j++ {
				if o := str("comp over"); whole {
					over = append(over, o)
				}
			}
			e = strategy.Comp{View: view, Over: over}
		case 1:
			e = strategy.Inst{View: view}
		default:
			c.Fail("expr kind", fmt.Errorf("unknown expression kind %d", kind))
		}
		if whole && e != nil {
			b.Strategy = append(b.Strategy, e)
		}
	}
	b.Accepts = Range{Lo: c.Uvarint("accepts from"), Hi: c.Uvarint("accepts to")}
	if r := b.Accepts; (r.Lo == 0) != (r.Hi == 0) || r.Hi < r.Lo {
		c.Fail("accept range", fmt.Errorf("%d to %d names no accepts", r.Lo, r.Hi))
	}
	return b, c.Done()
}

// decodeCommit decodes a commit record; without whole, it checks that the
// record decodes and keeps no step.
func decodeCommit(p []byte, whole bool) (CommitRecord, error) {
	c := NewCursor("journal: commit", p)
	rec := CommitRecord{TotalWork: c.Varint("work"), ElapsedNS: int64(c.Uint64("elapsed")), UnixNano: int64(c.Uint64("time")), AcceptUnixNano: int64(c.Uint64("accept time"))}
	n := c.Count("step count")
	if whole && n > 0 {
		rec.Steps = make([]StepRecord, 0, min(n, 64))
	}
	for i := 0; i < n && c.err == nil; i++ {
		var s StepRecord
		if whole {
			s.Key = c.String("step key")
		} else {
			c.Bytes("step key")
		}
		s.Work, s.Terms = c.Varint("step work"), int(c.Uvarint("step terms"))
		s.Skipped, s.Digest = c.Byte("step flags")&1 != 0, c.Uint64("step digest")
		if whole {
			rec.Steps = append(rec.Steps, s)
		}
	}
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
