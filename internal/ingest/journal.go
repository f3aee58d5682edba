package ingest

// The ingest journal is the crash-safe half of the exactly-once handoff
// between the continuous change stream and the window journal. It is a record
// log of internal/journal — that package's frames, scan loop, appender and
// payload codec, and its open-for-append, which cuts off the tail a crash
// tore before the restarted ingester appends behind it — with a record
// vocabulary of its own:
//
//   - accept (0x10): one Submit's changes — sequence number, accept time,
//     view, and the encoded row changes. Written before the change enters
//     the queue, so an accepted change survives a crash.
//   - cut (0x11): a batch boundary — which accept sequences the batch
//     covers and, crucially, the window-journal sequence number the batch
//     will run as. No separate "installed" record is needed: the window
//     journal assigns sequence numbers only to committed windows (an
//     aborted window re-uses its number), so a batch cut for window s is
//     durably installed if and only if the window journal's committed
//     count ever reaches s.
//   - reset (0x12): written when a restarted ingester resumes over an
//     existing journal. It voids all earlier cut records and pins the
//     installed floor, because the new incarnation re-cuts the surviving
//     entries with fresh window sequence numbers — without the reset, a
//     stale cut whose window number a *different* batch later commits
//     could claim changes that were never installed.
//
// Reconciliation on restart: take the installed floor (the max of every
// reset's floor and every live cut's high sequence whose window number the
// window journal has committed); every accepted entry above the floor is
// requeued. Combined with Warehouse.Restore — replay committed windows,
// recover the in-flight one — a crash at any point neither drops nor
// double-applies a change.

import (
	"encoding/binary"
	"fmt"
	"os"

	"repro/internal/journal"
)

// Ingest-journal record types, disjoint from the window journal's 1..4.
const (
	typeAccept byte = 0x10
	typeCut    byte = 0x11
	typeReset  byte = 0x12
)

// entry is one accepted Submit: the unit of queueing and journaling.
type entry struct {
	seq  uint64
	at   int64 // accept time, UnixNano
	view string
	rows []journal.RowChange
	n    int // row-changes (delta size: insertions plus deletions)
}

// cutRecord marks a batch boundary as read back from the journal.
type cutRecord struct {
	batch     int
	lo, hi    uint64
	windowSeq int
	changes   int
}

// resetRecord voids earlier cuts and pins the installed floor.
type resetRecord struct {
	installedHi uint64
	committed   int
}

// changes is a row list's delta size: insertions plus deletions.
func changes(rows []journal.RowChange) int {
	var n int64
	for _, rc := range rows {
		n += max(rc.Count, -rc.Count)
	}
	return int(n)
}

func encodeAccept(e entry) []byte {
	p := binary.AppendUvarint(nil, e.seq)
	p = binary.AppendVarint(p, e.at)
	p = journal.AppendString(p, e.view)
	return journal.AppendRows(p, e.rows)
}

func decodeAccept(p []byte) (entry, error) {
	c := journal.NewCursor("ingest: accept", p)
	e := entry{seq: c.Uvarint("seq"), at: c.Varint("time"), view: c.String("view"), rows: c.Rows("row")}
	e.n = changes(e.rows)
	return e, c.Done()
}

func encodeCut(c cutRecord) []byte {
	p := binary.AppendUvarint(nil, uint64(c.batch))
	p = binary.AppendUvarint(p, c.lo)
	p = binary.AppendUvarint(p, c.hi)
	p = binary.AppendUvarint(p, uint64(c.windowSeq))
	return binary.AppendUvarint(p, uint64(c.changes))
}

func decodeCut(p []byte) (cutRecord, error) {
	c := journal.NewCursor("ingest: cut", p)
	return cutRecord{
		batch:     int(c.Uvarint("batch")),
		lo:        c.Uvarint("lo"),
		hi:        c.Uvarint("hi"),
		windowSeq: int(c.Uvarint("window seq")),
		changes:   int(c.Uvarint("changes")),
	}, c.Done()
}

func encodeReset(rr resetRecord) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(nil, rr.installedHi), uint64(rr.committed))
}

func decodeReset(p []byte) (resetRecord, error) {
	c := journal.NewCursor("ingest: reset", p)
	return resetRecord{installedHi: c.Uvarint("floor"), committed: int(c.Uvarint("committed"))}, c.Done()
}

// journalView is an ingest journal parsed back from disk.
type journalView struct {
	entries []entry     // every accepted entry, in sequence order
	cuts    []cutRecord // cut records after the last reset ("live" cuts)
	floor   uint64      // installed floor pinned by resets
	resets  int
	torn    bool // the file ended in a torn or corrupt frame (crash artifact)
}

// feed folds one record of the journal file into v: the callback of
// journal.ScanFile and journal.OpenAppend. A type outside the vocabulary is a
// format error, not a torn tail: nothing but an ingester writes this file.
func (v *journalView) feed(typ byte, payload []byte, _ int) error {
	switch typ {
	case typeAccept:
		e, err := decodeAccept(payload)
		if err != nil {
			return err
		}
		v.entries = append(v.entries, e)
	case typeCut:
		c, err := decodeCut(payload)
		if err != nil {
			return err
		}
		v.cuts = append(v.cuts, c)
	case typeReset:
		rr, err := decodeReset(payload)
		if err != nil {
			return err
		}
		v.floor = max(v.floor, rr.installedHi)
		v.cuts = nil // a reset voids every earlier cut
		v.resets++
	default:
		return fmt.Errorf("ingest: unknown journal record type %#x", typ)
	}
	return nil
}

// readJournal parses an ingest journal file without touching it. A missing
// file is an empty journal, and a torn or corrupt tail — the expected artifact
// of a crash mid-append — is reported and otherwise treated as not written,
// as by the window journal's file reader.
func readJournal(path string) (journalView, error) {
	var v journalView
	buf, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return v, err
	}
	_, v.torn, err = journal.ScanFile(buf, v.feed)
	return v, err
}

// reconcile computes the exactly-once resume state against the window
// journal's committed count: the installed floor (everything at or below it
// reached a committed window) and the accepted entries above it, which the
// restarted ingester requeues.
func (v journalView) reconcile(committed int) (requeue []entry, floor uint64) {
	floor = v.floor
	for _, c := range v.cuts {
		if c.windowSeq <= committed && c.hi > floor {
			floor = c.hi
		}
	}
	for _, e := range v.entries {
		if e.seq > floor {
			requeue = append(requeue, e)
		}
	}
	return requeue, floor
}

// JournalSummary is InspectJournal's report: enough to assert a journal is
// parseable and to sanity-check drain and recovery tests.
type JournalSummary struct {
	// Accepts counts accept records; AcceptedChanges their total row-changes.
	Accepts         int
	AcceptedChanges int
	// Cuts counts live cut records (after the last reset); Resets the resets.
	Cuts   int
	Resets int
	// InstalledFloor is the accept sequence at or below which every change
	// reached a committed window, given the window journal's committed count.
	InstalledFloor uint64
	// Requeued counts entries above the floor — what a restart would replay.
	Requeued int
	// Torn reports the file ended in a torn or corrupt frame.
	Torn bool
}

// InspectJournal parses an ingest journal and reconciles it against a window
// journal's committed count, without constructing an ingester.
func InspectJournal(path string, committed int) (JournalSummary, error) {
	v, err := readJournal(path)
	if err != nil {
		return JournalSummary{}, err
	}
	requeue, floor := v.reconcile(committed)
	s := JournalSummary{
		Accepts:        len(v.entries),
		Cuts:           len(v.cuts),
		Resets:         v.resets,
		InstalledFloor: floor,
		Requeued:       len(requeue),
		Torn:           v.torn,
	}
	for _, e := range v.entries {
		s.AcceptedChanges += e.n
	}
	return s, nil
}
