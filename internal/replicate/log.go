// Package replicate ships a warehouse's journal — the accepted changes and
// the update windows that install them — from a leader to followers over
// HTTP, in the ordered-update-log style of Bayou: every replica applies the
// same log in the same order and therefore converges to the same state. The
// journal is already a deterministic, digest-verified replay log
// (internal/journal, internal/recovery), so replication reduces to moving its
// bytes: the leader appends its CRC64-framed records to an in-memory Log,
// followers fetch chunks from a high-water mark, re-verify every frame, keep
// every accept, and replay each committed window through
// warehouse.ApplyWindow — which re-executes it step-by-step and flips the
// follower's epoch only after the leader's per-step digests all match.
// Followers serve reads at their own (possibly stale) epoch with reported
// lag; on leader death the follower with the highest high-water mark is
// promoted and resumes the same log, an ingester over it requeuing the
// accepts it holds that no committed window installs. Accepts the leader
// acknowledged and never shipped are lost with it, as any asynchronous
// write is.
package replicate

import (
	"fmt"
	"sync"

	"repro/internal/journal"
)

// Log is an append-only, in-memory journal byte log with a stability
// watermark: its bytes and the mark of what may ship. A journal.Writer
// appends straight into it and, through Shippable, moves the mark past
// every record that leaves no window open — an accept between windows, a
// commit or abort record — with the times of the latest commit; a follower
// does the same for the verified bytes it applies. Followers are only ever
// served bytes below the watermark, so a window that is still being written —
// or that dies in-flight with a crashed leader — never ships, and an accept
// appended inside an open window ships when the window closes. Safe for
// concurrent use.
type Log struct {
	mu       sync.Mutex
	buf      []byte
	stable   int   // bytes through the last record no open window holds
	commitNS int64 // wall-clock commit time of the last committed window (UnixNano)
	acceptNS int64 // its batch-accept time (0 unless it came from the ingest path)
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Write appends journal bytes; they ship once Shippable marks them.
func (l *Log) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	return len(p), nil
}

// Shippable moves the watermark to the end of the bytes written, and records
// latest, the last committed window's commit record, as the stable tip.
func (l *Log) Shippable(latest journal.CommitRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stable = len(l.buf)
	l.commitNS, l.acceptNS = latest.UnixNano, latest.AcceptUnixNano
}

// StableTip reports the wall-clock commit time of the last committed window
// in the log and that window's batch-accept time (both UnixNano; 0 when
// unrecorded). This is what the leader advertises so followers can report
// staleness in wall-clock terms, not just epochs.
func (l *Log) StableTip() (commitNS, acceptNS int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitNS, l.acceptNS
}

// Len is the total byte length appended, including any unstable tail.
func (l *Log) Len() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(len(l.buf))
}

// StableLen is the byte length through the last record no open window
// holds — the furthest offset a follower may fetch.
func (l *Log) StableLen() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(l.stable)
}

// Chunk copies out up to max stable bytes starting at offset from — all of
// them when max <= 0. It returns the chunk and the stable length at the time
// of the read; the caller's next offset is from+len(data). An offset beyond the stable
// watermark is an error — a follower asking for bytes this log does not have
// (e.g. after a failover onto a shorter log) must find out loudly.
func (l *Log) Chunk(from, max int64) (data []byte, stable int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < 0 || from > int64(l.stable) {
		return nil, int64(l.stable), fmt.Errorf("replicate: chunk offset %d outside stable log [0,%d]", from, l.stable)
	}
	end := from + max
	if max <= 0 || end > int64(l.stable) {
		end = int64(l.stable)
	}
	return append([]byte(nil), l.buf[from:end]...), int64(l.stable), nil
}
