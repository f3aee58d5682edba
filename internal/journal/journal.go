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
// The on-disk format reuses the snapshot package's framing idioms: varint
// lengths, length-prefixed strings, and CRC64 (ECMA) integrity. Each record
// is one self-delimiting frame
//
//	[type byte][payload length uvarint][payload][CRC64 big-endian]
//
// where the CRC covers the type byte, the length bytes and the payload, so
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
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/strategy"
)

// Record type tags.
const (
	typeBegin  byte = 1
	typeStep   byte = 2
	typeCommit byte = 3
	typeAbort  byte = 4
)

// Frame and payload guards: a corrupt or adversarial length never causes a
// large allocation.
const (
	maxFrame = 1 << 30
	maxItems = 1 << 24
)

var crcTable = crc64.MakeTable(crc64.ECMA)

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
	mu  sync.Mutex
	out io.Writer
	err error
	ctx context.Context // when non-nil, gates begin/step appends
	// flushed is closed when the sync the last begin record started has
	// returned and its failure, if any, is in err; nil before the first.
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
func NewWriter(out io.Writer) *Writer { return &Writer{out: out} }

// Err returns the sticky error, if any append or sync has failed.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

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
// beside it.
func (w *Writer) append(typ byte, payload []byte) error {
	frame := EncodeFrame(typ, payload)
	if typ != typeStep {
		w.awaitFlush()
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.ctx != nil && (typ == typeBegin || typ == typeStep) {
		if err := w.ctx.Err(); err != nil {
			return fmt.Errorf("journal: append cancelled: %w", err)
		}
	}
	if _, err := w.out.Write(frame); err != nil {
		w.err = fmt.Errorf("journal: append: %w", err)
		return w.err
	}
	s, ok := w.out.(interface{ Sync() error })
	if !ok || typ == typeStep {
		return nil
	}
	if typ == typeBegin {
		flushed := make(chan struct{})
		w.flushed = flushed
		go func() {
			defer close(flushed)
			if err := s.Sync(); err != nil {
				w.syncFailed(err)
			}
		}()
		return nil
	}
	if err := s.Sync(); err != nil {
		w.err = fmt.Errorf("journal: sync: %w", err)
		return w.err
	}
	return nil
}

// syncFailed makes a begin record's failed sync the sticky error, unless an
// append beside it failed first.
func (w *Writer) syncFailed(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = fmt.Errorf("journal: sync: %w", err)
	}
}

// Begin appends a window-begin record and starts its sync, which Commit,
// Abort or Wait waits for.
func (w *Writer) Begin(b BeginRecord) error {
	var buf bytes.Buffer
	writeUvarint(&buf, uint64(b.Seq))
	writeString(&buf, b.Planner)
	writeString(&buf, b.Mode)
	writeUvarint(&buf, uint64(b.Workers))
	var flags byte
	if b.SkipEmptyDeltas {
		flags |= 1
	}
	if b.ProbeWork {
		flags |= 2
	}
	buf.WriteByte(flags)
	writeUint64(&buf, b.StateDigest)
	writeUint64(&buf, b.BatchDigest)
	writeUvarint(&buf, uint64(len(b.Strategy)))
	for _, e := range b.Strategy {
		switch x := e.(type) {
		case strategy.Comp:
			buf.WriteByte(0)
			writeString(&buf, x.View)
			writeUvarint(&buf, uint64(len(x.Over)))
			for _, o := range x.Over {
				writeString(&buf, o)
			}
		case strategy.Inst:
			buf.WriteByte(1)
			writeString(&buf, x.View)
		default:
			return fmt.Errorf("journal: unknown expression type %T", e)
		}
	}
	writeUvarint(&buf, uint64(len(b.Batch)))
	for _, vb := range b.Batch {
		writeString(&buf, vb.View)
		writeUvarint(&buf, uint64(len(vb.Rows)))
		for _, r := range vb.Rows {
			writeString(&buf, r.Key)
			writeVarint(&buf, r.Count)
		}
	}
	return w.append(typeBegin, buf.Bytes())
}

// Step appends a completed-step record.
func (w *Writer) Step(s StepRecord) error {
	var buf bytes.Buffer
	writeUvarint(&buf, uint64(s.Index))
	writeString(&buf, s.Key)
	writeVarint(&buf, s.Work)
	writeUvarint(&buf, uint64(s.Terms))
	var flags byte
	if s.Skipped {
		flags = 1
	}
	buf.WriteByte(flags)
	writeUint64(&buf, s.Digest)
	return w.append(typeStep, buf.Bytes())
}

// Commit appends a window-commit record, once the window's begin record is
// durable, and syncs it.
func (w *Writer) Commit(c CommitRecord) error {
	var buf bytes.Buffer
	writeVarint(&buf, c.TotalWork)
	writeVarint(&buf, c.ElapsedNS)
	writeVarint(&buf, c.UnixNano)
	writeVarint(&buf, c.AcceptUnixNano)
	return w.append(typeCommit, buf.Bytes())
}

// Abort appends a window-abort record, once the window's begin record is
// durable, and syncs it.
func (w *Writer) Abort(a AbortRecord) error {
	var buf bytes.Buffer
	writeString(&buf, a.Reason)
	return w.append(typeAbort, buf.Bytes())
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
	// begins. A file is cut back to it before anything is appended, or the
	// torn frame would hide every later record from the next reader.
	Size int64
}

// OpenAppend opens the journal file at path, which lg was read from (or
// which does not exist yet), for appending after its last intact record: a
// torn tail is cut off first.
func OpenAppend(path string, lg Log) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if lg.Truncated {
		if err := f.Truncate(lg.Size); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: cutting the torn tail of %s: %w", path, err)
		}
	}
	return f, nil
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

// ReadLog parses a journal. Torn or corrupt trailing frames are tolerated
// (Truncated is set and reading stops); a CRC-valid record that fails to
// decode, or a record outside any window, is a format error.
func ReadLog(in io.Reader) (Log, error) {
	var lg Log
	br := bufio.NewReader(in)
	for {
		typ, payload, size, status := readFrame(br)
		if status == frameEOF {
			return lg, nil
		}
		if status == frameTruncated {
			lg.Truncated = true
			return lg, nil
		}
		lg.Size += size
		switch typ {
		case typeBegin:
			b, err := decodeBegin(payload)
			if err != nil {
				return lg, err
			}
			lg.Windows = append(lg.Windows, WindowLog{Begin: b})
		case typeStep, typeCommit, typeAbort:
			if len(lg.Windows) == 0 {
				return lg, fmt.Errorf("journal: record type %d before any window begin", typ)
			}
			wl := &lg.Windows[len(lg.Windows)-1]
			switch typ {
			case typeStep:
				s, err := decodeStep(payload)
				if err != nil {
					return lg, err
				}
				wl.Steps = append(wl.Steps, s)
			case typeCommit:
				c, err := decodeCommit(payload)
				if err != nil {
					return lg, err
				}
				wl.Commit = &c
			case typeAbort:
				a, err := decodeAbort(payload)
				if err != nil {
					return lg, err
				}
				wl.Abort = &a
			}
		}
	}
}

type frameStatus uint8

const (
	frameOK frameStatus = iota
	frameEOF
	frameTruncated
)

// readFrame reads one frame and reports its length in bytes. A clean end of
// input is frameEOF; any torn, short or CRC-failing frame — including an
// unknown record type — is frameTruncated, the normal artifact of a crash
// mid-append.
func readFrame(br *bufio.Reader) (typ byte, payload []byte, size int64, status frameStatus) {
	typ, rerr := br.ReadByte()
	if rerr != nil {
		return 0, nil, 0, frameEOF
	}
	head := []byte{typ}
	n, lenBytes, rerr := readUvarintBytes(br)
	if rerr != nil || n > maxFrame {
		return 0, nil, 0, frameTruncated
	}
	head = append(head, lenBytes...)
	payload = make([]byte, n)
	if _, rerr := io.ReadFull(br, payload); rerr != nil {
		return 0, nil, 0, frameTruncated
	}
	var tail [8]byte
	if _, rerr := io.ReadFull(br, tail[:]); rerr != nil {
		return 0, nil, 0, frameTruncated
	}
	sum := crc64.Checksum(head, crcTable)
	sum = crc64.Update(sum, crcTable, payload)
	if binary.BigEndian.Uint64(tail[:]) != sum {
		return 0, nil, 0, frameTruncated
	}
	if typ < typeBegin || typ > typeAbort {
		return 0, nil, 0, frameTruncated
	}
	return typ, payload, int64(len(head) + len(payload) + len(tail)), frameOK
}

func decodeBegin(p []byte) (BeginRecord, error) {
	r := bytes.NewReader(p)
	var b BeginRecord
	seq, err := readUvarint(r)
	if err != nil {
		return b, fmt.Errorf("journal: begin seq: %w", err)
	}
	b.Seq = int(seq)
	if b.Planner, err = readString(r); err != nil {
		return b, fmt.Errorf("journal: begin planner: %w", err)
	}
	if b.Mode, err = readString(r); err != nil {
		return b, fmt.Errorf("journal: begin mode: %w", err)
	}
	workers, err := readUvarint(r)
	if err != nil {
		return b, fmt.Errorf("journal: begin workers: %w", err)
	}
	b.Workers = int(workers)
	flags, err := r.ReadByte()
	if err != nil {
		return b, fmt.Errorf("journal: begin flags: %w", err)
	}
	b.SkipEmptyDeltas = flags&1 != 0
	b.ProbeWork = flags&2 != 0
	if b.StateDigest, err = readUint64(r); err != nil {
		return b, fmt.Errorf("journal: begin state digest: %w", err)
	}
	if b.BatchDigest, err = readUint64(r); err != nil {
		return b, fmt.Errorf("journal: begin batch digest: %w", err)
	}
	nExpr, err := readCount(r)
	if err != nil {
		return b, fmt.Errorf("journal: begin strategy length: %w", err)
	}
	for i := 0; i < nExpr; i++ {
		kind, err := r.ReadByte()
		if err != nil {
			return b, fmt.Errorf("journal: begin expr kind: %w", err)
		}
		view, err := readString(r)
		if err != nil {
			return b, fmt.Errorf("journal: begin expr view: %w", err)
		}
		switch kind {
		case 0:
			nOver, err := readCount(r)
			if err != nil {
				return b, fmt.Errorf("journal: begin comp over count: %w", err)
			}
			over := make([]string, 0, min(nOver, 64))
			for j := 0; j < nOver; j++ {
				o, err := readString(r)
				if err != nil {
					return b, fmt.Errorf("journal: begin comp over: %w", err)
				}
				over = append(over, o)
			}
			b.Strategy = append(b.Strategy, strategy.Comp{View: view, Over: over})
		case 1:
			b.Strategy = append(b.Strategy, strategy.Inst{View: view})
		default:
			return b, fmt.Errorf("journal: unknown expression kind %d", kind)
		}
	}
	nViews, err := readCount(r)
	if err != nil {
		return b, fmt.Errorf("journal: begin batch view count: %w", err)
	}
	for i := 0; i < nViews; i++ {
		var vb ViewBatch
		if vb.View, err = readString(r); err != nil {
			return b, fmt.Errorf("journal: begin batch view: %w", err)
		}
		nRows, err := readCount(r)
		if err != nil {
			return b, fmt.Errorf("journal: begin batch row count: %w", err)
		}
		vb.Rows = make([]RowChange, 0, min(nRows, 4096))
		for j := 0; j < nRows; j++ {
			var rc RowChange
			if rc.Key, err = readString(r); err != nil {
				return b, fmt.Errorf("journal: begin batch row: %w", err)
			}
			if rc.Count, err = binary.ReadVarint(r); err != nil {
				return b, fmt.Errorf("journal: begin batch count: %w", err)
			}
			vb.Rows = append(vb.Rows, rc)
		}
		b.Batch = append(b.Batch, vb)
	}
	if r.Len() != 0 {
		return b, fmt.Errorf("journal: begin record has %d trailing bytes", r.Len())
	}
	return b, nil
}

func decodeStep(p []byte) (StepRecord, error) {
	r := bytes.NewReader(p)
	var s StepRecord
	idx, err := readUvarint(r)
	if err != nil {
		return s, fmt.Errorf("journal: step index: %w", err)
	}
	s.Index = int(idx)
	if s.Key, err = readString(r); err != nil {
		return s, fmt.Errorf("journal: step key: %w", err)
	}
	if s.Work, err = binary.ReadVarint(r); err != nil {
		return s, fmt.Errorf("journal: step work: %w", err)
	}
	terms, err := readUvarint(r)
	if err != nil {
		return s, fmt.Errorf("journal: step terms: %w", err)
	}
	s.Terms = int(terms)
	flags, err := r.ReadByte()
	if err != nil {
		return s, fmt.Errorf("journal: step flags: %w", err)
	}
	s.Skipped = flags&1 != 0
	if s.Digest, err = readUint64(r); err != nil {
		return s, fmt.Errorf("journal: step digest: %w", err)
	}
	if r.Len() != 0 {
		return s, fmt.Errorf("journal: step record has %d trailing bytes", r.Len())
	}
	return s, nil
}

// DecodeCommitRecord decodes a commit-record payload. Replication reads the
// stable tip's wall-clock timestamps straight off the byte log with it, so
// the leader's HTTP handlers never touch the (unsynchronized) parsed journal.
func DecodeCommitRecord(p []byte) (CommitRecord, error) { return decodeCommit(p) }

func decodeCommit(p []byte) (CommitRecord, error) {
	r := bytes.NewReader(p)
	var c CommitRecord
	var err error
	if c.TotalWork, err = binary.ReadVarint(r); err != nil {
		return c, fmt.Errorf("journal: commit work: %w", err)
	}
	if c.ElapsedNS, err = binary.ReadVarint(r); err != nil {
		return c, fmt.Errorf("journal: commit elapsed: %w", err)
	}
	if r.Len() == 0 {
		// Pre-timestamp commit record: times stay zero.
		return c, nil
	}
	if c.UnixNano, err = binary.ReadVarint(r); err != nil {
		return c, fmt.Errorf("journal: commit time: %w", err)
	}
	if c.AcceptUnixNano, err = binary.ReadVarint(r); err != nil {
		return c, fmt.Errorf("journal: commit accept time: %w", err)
	}
	if r.Len() != 0 {
		return c, fmt.Errorf("journal: commit record has %d trailing bytes", r.Len())
	}
	return c, nil
}

func decodeAbort(p []byte) (AbortRecord, error) {
	r := bytes.NewReader(p)
	var a AbortRecord
	var err error
	if a.Reason, err = readString(r); err != nil {
		return a, fmt.Errorf("journal: abort reason: %w", err)
	}
	if r.Len() != 0 {
		return a, fmt.Errorf("journal: abort record has %d trailing bytes", r.Len())
	}
	return a, nil
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
		vb := ViewBatch{View: name}
		d.ScanEncoded(func(key string, count int64) bool {
			vb.Rows = append(vb.Rows, RowChange{Key: key, Count: count})
			return true
		})
		sort.Slice(vb.Rows, func(i, j int) bool { return vb.Rows[i].Key < vb.Rows[j].Key })
		out = append(out, vb)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].View < out[j].View })
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

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	buf.Write(b[:n])
}

func writeVarint(buf *bytes.Buffer, v int64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutVarint(b[:], v)
	buf.Write(b[:n])
}

func writeString(buf *bytes.Buffer, s string) {
	writeUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

func writeUint64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}

func readUvarint(r *bytes.Reader) (uint64, error) { return binary.ReadUvarint(r) }

func readCount(r *bytes.Reader) (int, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	if n > maxItems {
		return 0, fmt.Errorf("implausible count %d", n)
	}
	return int(n), nil
}

func readString(r *bytes.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > uint64(r.Len()) {
		return "", fmt.Errorf("string length %d exceeds remaining %d bytes", n, r.Len())
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func readUint64(r *bytes.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b[:]), nil
}

// readUvarintBytes reads a uvarint while capturing its raw bytes (for CRC
// reconstruction).
func readUvarintBytes(br *bufio.Reader) (uint64, []byte, error) {
	var raw []byte
	var v uint64
	var shift uint
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, nil, err
		}
		raw = append(raw, b)
		if shift >= 64 {
			return 0, nil, fmt.Errorf("uvarint overflow")
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, raw, nil
		}
		shift += 7
	}
}
