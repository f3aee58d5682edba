package storage

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"syscall"

	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/relation"
)

// This file is the on-disk spill format for bounded-memory execution: when a
// build-side hash table exceeds the window's memory budget, its rows are
// partitioned to spill files (Grace-style) and re-read partition-wise at
// probe time (internal/core/spill.go). Spill files are transient — they live
// only for one window under a per-window temp dir — but they are still
// CRC-framed: a torn write or bit flip must surface as a detected error the
// degradation ladder can act on, never as silently wrong results.
//
// A spill file is a run of frames of the record log (journal.EncodeFrame),
// each of type spillRows, whose payload is a sequence of rows, each
//
//	uvarint len(encodedTuple) | encodedTuple | varint count
//
// using the relation package's injective tuple encoding.

// spillRows is the type byte of a spill file's frames.
const spillRows byte = 'S'

// Fault-injection points hit by spill I/O (see internal/faults). spill-write
// fires before each frame write, spill-read before each partition read, and
// spill-enospc wraps its fault in syscall.ENOSPC to model a full disk.
const (
	SpillWritePoint  = "spill-write"
	SpillReadPoint   = "spill-read"
	SpillENOSPCPoint = "spill-enospc"
)

// ErrCorruptSpill reports a spill file that is definitely damaged (CRC
// mismatch, truncated frame, or an undecodable row).
var ErrCorruptSpill = errors.New("storage: corrupt spill file")

// spillFrameTarget is the payload size at which a frame is flushed. Small
// enough that ctx cancellation and fault points are hit at a useful
// granularity, large enough that framing overhead is negligible.
const spillFrameTarget = 32 << 10

// SpillWriter streams counted tuples into one spill partition file.
type SpillWriter struct {
	f       *os.File
	inj     *faults.Injector
	payload []byte
	scratch []byte
	written int64
	rows    int64
}

// CreateSpill creates (truncating) a spill partition file. The injector may
// be nil.
func CreateSpill(path string, inj *faults.Injector) (*SpillWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("storage: creating spill file: %w", err)
	}
	return &SpillWriter{f: f, inj: inj, payload: make([]byte, 0, spillFrameTarget+1024)}, nil
}

// Append adds one counted tuple, flushing a frame when the payload target is
// reached. Writes are ctx-aware: a done ctx fails the append before any
// further I/O (nil ctx never cancels).
func (w *SpillWriter) Append(ctx context.Context, t relation.Tuple, count int64) error {
	if ctx != nil && ctx.Err() != nil {
		return fmt.Errorf("storage: spill write: %w", ctx.Err())
	}
	w.scratch = t.AppendEncoded(w.scratch[:0])
	w.payload = binary.AppendUvarint(w.payload, uint64(len(w.scratch)))
	w.payload = binary.AppendVarint(append(w.payload, w.scratch...), count)
	w.rows++
	if len(w.payload) >= spillFrameTarget {
		return w.flush()
	}
	return nil
}

// flush writes the buffered payload as one CRC-sealed frame.
func (w *SpillWriter) flush() error {
	if len(w.payload) == 0 {
		return nil
	}
	if err := w.inj.Hit(SpillWritePoint); err != nil {
		return fmt.Errorf("storage: spill write: %w", err)
	}
	if err := w.inj.Hit(SpillENOSPCPoint); err != nil {
		// Model a full disk: the injected fault keeps its identity (for
		// transient classification) and the error reports ENOSPC.
		return fmt.Errorf("storage: spill write: %w", errors.Join(syscall.ENOSPC, err))
	}
	wn, err := w.f.Write(journal.EncodeFrame(spillRows, w.payload))
	w.written += int64(wn)
	if err != nil {
		return fmt.Errorf("storage: spill write: %w", err)
	}
	w.payload = w.payload[:0]
	return nil
}

// Close flushes the final frame and closes the file. The writer is unusable
// afterwards.
func (w *SpillWriter) Close() error {
	ferr := w.flush()
	cerr := w.f.Close()
	if ferr != nil {
		return ferr
	}
	if cerr != nil {
		return fmt.Errorf("storage: closing spill file: %w", cerr)
	}
	return nil
}

// Bytes returns the bytes written to disk so far.
func (w *SpillWriter) Bytes() int64 { return w.written }

// Rows returns the rows appended so far.
func (w *SpillWriter) Rows() int64 { return w.rows }

// ReadSpill replays one spill partition file through fn, verifying every
// frame's CRC before its rows are decoded (journal.Scan), and returns the
// bytes read. Reading is ctx-aware (checked per frame; nil ctx never cancels)
// and hits the spill-read fault point once per call. Any damage — truncation,
// CRC mismatch, undecodable row — returns an error wrapping ErrCorruptSpill
// with no partial rows delivered beyond the last intact frame.
func ReadSpill(ctx context.Context, path string, inj *faults.Injector, fn func(relation.Tuple, int64) error) (int64, error) {
	if err := inj.Hit(SpillReadPoint); err != nil {
		return 0, fmt.Errorf("storage: spill read: %w", err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("storage: spill read: %w", err)
	}
	n, err := journal.Scan(buf, func(typ byte, payload []byte, _ int) error {
		if ctx != nil && ctx.Err() != nil {
			return fmt.Errorf("storage: spill read: %w", ctx.Err())
		}
		if typ != spillRows {
			return fmt.Errorf("%w: frame of type %d", ErrCorruptSpill, typ)
		}
		return decodeSpillFrame(payload, fn)
	})
	switch {
	case errors.Is(err, journal.ErrCorruptFrame):
		return int64(n), fmt.Errorf("%w at offset %d: %v", ErrCorruptSpill, n, err)
	case err == nil && n < len(buf):
		return int64(n), fmt.Errorf("%w: truncated frame at offset %d", ErrCorruptSpill, n)
	}
	return int64(n), err
}

// decodeSpillFrame delivers one verified frame's rows to fn. The frame is
// copied to a string once; every row's tuple is decoded in place from it.
func decodeSpillFrame(payload []byte, fn func(relation.Tuple, int64) error) error {
	frame := string(payload)
	for off := 0; off < len(payload); {
		elen, n := binary.Uvarint(payload[off:])
		if n <= 0 || elen > uint64(len(payload)-off-n) {
			return fmt.Errorf("%w: truncated row encoding", ErrCorruptSpill)
		}
		off += n
		enc := frame[off : off+int(elen)]
		off += int(elen)
		count, n := binary.Varint(payload[off:])
		if n <= 0 {
			return fmt.Errorf("%w: truncated row count", ErrCorruptSpill)
		}
		off += n
		tup, err := relation.DecodeTuple(enc)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrCorruptSpill, err)
		}
		if err := fn(tup, count); err != nil {
			return err
		}
	}
	return nil
}
