package core

import (
	"fmt"
	"path/filepath"

	"repro/internal/cost"
	"repro/internal/memory"
	"repro/internal/relation"
	"repro/internal/storage"
)

// This file implements Grace-style spilled builds: a build-side hash table
// that would exceed the window's memory budget is partitioned to CRC-framed
// temp files (internal/storage spill format) and probed partition-wise. Per
// pass, one partition per spilled step is loaded resident and ALL driver
// rows run through the normal pipeline; the pass odometer walks the cross
// product of each spilled step's partitions.
//
// Correctness: a final output row requires a match at every join step, and a
// spilled step's matching build row lives in exactly one partition (the
// partitioning is disjoint), so every output row is emitted in exactly one
// pass — the pass whose odometer selects the partitions holding all of its
// matches. Any disjoint partitioning works; rows are routed by key hash when
// the step has equi-keys (the classic Grace scheme) and round-robin
// otherwise (a cross product hashes every row to one bucket, which would
// defeat the partitioning).
//
// The linear work metric is untouched by construction: a term's Work is
// fixed at plan time from cardinalities, and what pipeline.run counts — the
// probes of index-served steps, which every pass repeats — is reported
// beside it, never in it. Spilling changes bytes moved, never Work, digests,
// or replication/recovery verification.

// spilledBuild is one build side partitioned to disk.
type spilledBuild struct {
	cols  []int
	parts []spillPart
}

// spillPart is one on-disk partition.
type spillPart struct {
	path     string
	rows     int64
	bytes    int64 // on-disk size
	estBytes int64 // resident hash-table estimate when loaded
}

// spill partitions rows to temp files under the manager's window directory,
// for the run env. est is the rows' estimated resident footprint (sizes the
// partition count).
func (mm *memManager) spill(env *evalEnv, rows []prow, cols []int, est int64) (*spilledBuild, error) {
	dir, err := mm.spillDir()
	if err != nil {
		return nil, err
	}
	target := mm.partTarget()
	np := int(est/target) + 1
	if np < 2 {
		np = 2
	}
	if np > 256 {
		np = 256
	}
	id := mm.nextID.Add(1)
	writers := make([]*storage.SpillWriter, np)
	sb := &spilledBuild{cols: cols, parts: make([]spillPart, np)}
	for k := range writers {
		path := filepath.Join(dir, fmt.Sprintf("b%d-p%d.spill", id, k))
		sw, err := storage.CreateSpill(path, mm.inj)
		if err != nil {
			for _, w := range writers {
				if w != nil {
					w.Close()
				}
			}
			return nil, err
		}
		writers[k] = sw
		sb.parts[k].path = path
	}
	key := make(relation.Tuple, len(cols))
	enc := make([]byte, 0, 64)
	var werr error
	for i := range rows {
		r := &rows[i]
		k := i % np
		if len(cols) > 0 {
			for ki, c := range cols {
				key[ki] = r.row[c]
			}
			enc = key.AppendEncoded(enc[:0])
			k = int(hashBytes(enc) % uint64(np))
		}
		if werr = writers[k].Append(env.ctx, r.row, r.count); werr != nil {
			break
		}
	}
	var total int64
	width := 1
	if len(rows) > 0 {
		width = len(rows[0].row)
	}
	for k, sw := range writers {
		if cerr := sw.Close(); werr == nil && cerr != nil {
			werr = cerr
		}
		total += sw.Bytes()
		sb.parts[k].rows = sw.Rows()
		sb.parts[k].bytes = sw.Bytes()
		sb.parts[k].estBytes = cost.EstimateMaterializedBytes(sw.Rows(), width)
	}
	if werr != nil {
		// Leftover files are reclaimed when the window's spill dir is
		// removed at detach (or swept on the next open after a crash).
		return nil, werr
	}
	env.mu.Lock()
	env.ctr.SpillCount++
	env.ctr.SpilledBytes += total
	env.mu.Unlock()
	mm.spills.Add(1)
	mm.spilledBytes.Add(total)
	return sb, nil
}

// loadPart re-reads partition k into a resident build table. The
// reservation is forced — a probing pass must hold one partition per spilled
// step to make progress — and still tracked, so PeakReservedBytes reports
// genuine residency; the partition-size target leaves headroom for it.
func (sb *spilledBuild) loadPart(env *evalEnv, k int) (*buildTable, *memory.Grant, error) {
	part := &sb.parts[k]
	rows := make([]prow, 0, part.rows)
	n, err := storage.ReadSpill(env.ctx, part.path, env.mem.inj, func(t relation.Tuple, c int64) error {
		rows = append(rows, prow{row: t, count: c})
		return nil
	})
	env.mu.Lock()
	env.ctr.SpillReReadBytes += n
	env.mu.Unlock()
	env.mem.reReadBytes.Add(n)
	if err != nil {
		return nil, nil, err
	}
	g := env.mem.budget.Reserve(part.estBytes)
	return newBuildTable(rows, sb.cols), g, nil
}

// runSpilled executes a pipeline with spilled build sides pass-wise:
// spilled lists the step indexes whose build is on disk, and the odometer
// walks the cross product of their partitions, loading one partition per
// spilled step resident per pass and running every driver row through the
// normal (possibly morsel-parallel) pipeline.
func (p *pipeline) runSpilled(rows []prow, sink func() sinkFn, env *evalEnv, spilled []int) (int64, error) {
	counters := make([]int, len(spilled))
	var probed int64
	for {
		if err := env.ctxErr(); err != nil {
			return 0, err
		}
		grants := make([]*memory.Grant, 0, len(spilled))
		var passErr error
		for j, si := range spilled {
			bt, g, err := p.steps[si].spilled.loadPart(env, counters[j])
			if err != nil {
				passErr = err
				break
			}
			p.steps[si].build = bt
			grants = append(grants, g)
		}
		var n int64
		if passErr == nil {
			n, passErr = p.runResident(rows, sink, env)
		}
		for _, si := range spilled {
			p.steps[si].build = nil
		}
		for _, g := range grants {
			g.Release()
		}
		if passErr != nil {
			return 0, passErr
		}
		probed += n
		// Advance the odometer; done when it wraps.
		j := len(spilled) - 1
		for ; j >= 0; j-- {
			counters[j]++
			if counters[j] < len(p.steps[spilled[j]].spilled.parts) {
				break
			}
			counters[j] = 0
		}
		if j < 0 {
			return probed, nil
		}
	}
}
