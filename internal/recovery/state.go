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
	"repro/internal/relation"
)

// This file joins the journal's records to the warehouse they describe: a
// staged batch as the rows an accept record carries and back, and the state
// digest a begin record and every replica check.

// RowsOf lists a sealed delta's row changes in its run's order, by key.
func RowsOf(d *delta.Delta) []journal.RowChange {
	rows := make([]journal.RowChange, 0, d.Distinct())
	d.ScanEncoded(func(key string, _ relation.Tuple, count int64) bool {
		rows = append(rows, journal.RowChange{Key: key, Count: count})
		return true
	})
	return rows
}

// stagedBatch is one pass over a warehouse's staged base-view deltas that
// computes their journal.BatchDigest and, when collect is set, collects them
// as a journaled batch with deterministic bytes: each view's rows in its
// run's order (by key), the views by name. A window that journals no batch
// of its own digests without collecting.
func stagedBatch(w *core.Warehouse, collect bool) ([]journal.ViewBatch, uint64, error) {
	var (
		batch  []journal.ViewBatch
		digest uint64
	)
	for id := int32(0); id < int32(w.Graph().Len()); id++ {
		v := w.ViewAt(id)
		if !v.IsBase() || !v.HasPending() {
			continue
		}
		d, err := w.DeltaOf(v.Name())
		if err != nil {
			return nil, 0, err
		}
		seed := journal.ViewSeed(v.Name())
		d.ScanEncoded(func(key string, _ relation.Tuple, count int64) bool {
			digest += journal.RowDigest(seed, key, count)
			return true
		})
		if collect {
			batch = append(batch, journal.ViewBatch{View: v.Name(), Rows: RowsOf(d)})
		}
	}
	slices.SortFunc(batch, func(a, b journal.ViewBatch) int { return strings.Compare(a.View, b.View) })
	return batch, digest, nil
}

// RestoreBatch re-stages a journaled batch onto a warehouse whose catalog
// matches the journal's (the inverse of stagedBatch's collecting).
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
	for id := int32(0); id < int32(w.Graph().Len()); id++ {
		v := w.ViewAt(id)
		h ^= nameFold(v.Name(), v.Digest())
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
