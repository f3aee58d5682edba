package recovery

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/cowmap"
	"repro/internal/delta"
	"repro/internal/journal"
)

// This file joins the journal's records to the warehouse they describe: a
// staged batch as the rows an accept record carries and back, and the state
// digest a begin record and every replica check.

// RowsOf lists a delta's row changes, sorted by key for deterministic bytes.
func RowsOf(d *delta.Delta) []journal.RowChange {
	var rows []journal.RowChange
	d.ScanEncoded(func(key string, count int64) bool {
		rows = append(rows, journal.RowChange{Key: key, Count: count})
		return true
	})
	slices.SortFunc(rows, func(a, b journal.RowChange) int { return strings.Compare(a.Key, b.Key) })
	return rows
}

// BatchOf collects a warehouse's staged base-view deltas as a journaled
// batch, sorted by view name (and rows by key) for deterministic bytes.
func BatchOf(w *core.Warehouse) ([]journal.ViewBatch, error) {
	var out []journal.ViewBatch
	for _, name := range w.ViewNames() {
		v := w.MustView(name)
		if !v.IsBase() || !v.HasPending() {
			continue
		}
		d, err := w.DeltaOf(name)
		if err != nil {
			return nil, err
		}
		out = append(out, journal.ViewBatch{View: name, Rows: RowsOf(d)})
	}
	slices.SortFunc(out, func(a, b journal.ViewBatch) int { return strings.Compare(a.View, b.View) })
	return out, nil
}

// RestoreBatch re-stages a journaled batch onto a warehouse whose catalog
// matches the journal's (the inverse of BatchOf).
func RestoreBatch(w *core.Warehouse, batch []journal.ViewBatch) error {
	for _, vb := range batch {
		v := w.View(vb.View)
		if v == nil {
			return fmt.Errorf("the batch names unknown view %q", vb.View)
		}
		d := delta.New(v.Schema())
		for _, rc := range vb.Rows {
			d.AddEncoded(rc.Key, rc.Count)
		}
		if err := w.StageDelta(vb.View, d); err != nil {
			return fmt.Errorf("%s: %w", vb.View, err)
		}
	}
	return nil
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
// bags on different views do not cancel: the CRC-64/ECMA of the name
// followed by the digest's eight big-endian bytes.
func nameFold(name string, vh uint64) uint64 {
	var vb [8]byte
	binary.BigEndian.PutUint64(vb[:], vh)
	return cowmap.Extend(cowmap.Hash(name), vb[:])
}
