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
	rows := make([]journal.RowChange, 0, d.Distinct())
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
	batch, _, err := stagedBatch(w, true)
	return batch, err
}

// stagedBatch is one pass over a warehouse's staged base-view deltas that
// computes their journal.BatchDigest — as the sum it is, in whatever order
// the rows come — and, when collect is set, collects them as BatchOf does:
// every row into one slice, each view's sorted once by key, the views by
// name. A window that journals no batch of its own digests without
// collecting.
func stagedBatch(w *core.Warehouse, collect bool) ([]journal.ViewBatch, uint64, error) {
	type staged struct {
		name string
		d    *delta.Delta
	}
	var (
		views []staged
		rows  int
	)
	g := w.Graph()
	for id := int32(0); id < int32(g.Len()); id++ {
		if v := w.ViewAt(id); v.IsBase() && v.HasPending() {
			d, err := w.DeltaOf(v.Name())
			if err != nil {
				return nil, 0, err
			}
			views = append(views, staged{v.Name(), d})
			rows += d.Distinct()
		}
	}
	var (
		batch  []journal.ViewBatch
		all    []journal.RowChange
		digest uint64
	)
	if collect {
		slices.SortFunc(views, func(a, b staged) int { return strings.Compare(a.name, b.name) })
		batch, all = make([]journal.ViewBatch, 0, len(views)), make([]journal.RowChange, 0, rows)
	}
	for _, sv := range views {
		seed := journal.ViewSeed(sv.name)
		start := len(all)
		sv.d.ScanEncoded(func(key string, count int64) bool {
			digest += journal.RowDigest(seed, key, count)
			if collect {
				all = append(all, journal.RowChange{Key: key, Count: count})
			}
			return true
		})
		if collect {
			rows := all[start:len(all):len(all)]
			slices.SortFunc(rows, func(a, b journal.RowChange) int { return strings.Compare(a.Key, b.Key) })
			batch = append(batch, journal.ViewBatch{View: sv.name, Rows: rows})
		}
	}
	return batch, digest, nil
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
