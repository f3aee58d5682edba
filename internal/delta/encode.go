package delta

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/cowmap"
	"repro/internal/relation"
)

// AppendBinary serializes the accumulator's state (not its spec — the spec
// is part of the view definition and is re-supplied at decode time) in a
// self-delimiting binary form, used by warehouse snapshots.
func (a *Accum) AppendBinary(dst []byte) []byte {
	dst = binary.AppendVarint(dst, a.sumI)
	dst = binary.AppendUvarint(dst, math.Float64bits(a.sumF))
	if a.mm == nil {
		return binary.AppendUvarint(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(a.mm.vals.Len()))
	a.mm.vals.Scan(func(_ uint64, k string, v int64) bool {
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
		dst = binary.AppendVarint(dst, v)
		return true
	})
	return dst
}

// DecodeAccum reads an accumulator state produced by AppendBinary from r,
// attaching the given spec.
func DecodeAccum(r io.ByteReader, spec AggSpec) (*Accum, error) {
	a := NewAccum(spec)
	sumI, err := binary.ReadVarint(r)
	if err != nil {
		return nil, fmt.Errorf("delta: decoding accumulator: %w", err)
	}
	a.sumI = sumI
	bits, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("delta: decoding accumulator: %w", err)
	}
	a.sumF = math.Float64frombits(bits)
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("delta: decoding accumulator: %w", err)
	}
	if n > 0 && a.mm == nil {
		return nil, fmt.Errorf("delta: %d min/max values in the state of a %s accumulator", n, spec.Kind)
	}
	if a.mm != nil {
		// The prefix is unverified input: room beyond this is earned by
		// decoding values, not claimed up front.
		a.mm.vals.Grow(int(min(n, 1<<16)))
	}
	for i := uint64(0); i < n; i++ {
		klen, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("delta: decoding accumulator value: %w", err)
		}
		key := make([]byte, klen)
		for j := range key {
			b, err := r.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("delta: decoding accumulator value: %w", err)
			}
			key[j] = b
		}
		// Validate the key decodes as the encoding of one value.
		if tup, derr := relation.DecodeTuple(string(key)); derr != nil {
			return nil, fmt.Errorf("delta: corrupt accumulator value key: %w", derr)
		} else if len(tup) != 1 {
			return nil, fmt.Errorf("delta: corrupt accumulator value key: %d values, want 1", len(tup))
		}
		count, err := binary.ReadVarint(r)
		if err != nil {
			return nil, fmt.Errorf("delta: decoding accumulator count: %w", err)
		}
		k := string(key)
		slot, _ := a.mm.vals.Ref(cowmap.Hash(k), k)
		*slot = count
	}
	if a.mm != nil {
		a.mm.known = false
		a.settle()
	}
	return a, nil
}
