package delta

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/cowmap"
	"repro/internal/journal"
	"repro/internal/relation"
)

// AppendBinary serializes the accumulator's state (not its spec — the spec
// is part of the view definition and is re-supplied at decode time) in a
// self-delimiting binary form, as fields of a record payload (package
// journal) that DecodeAccum reads back.
func (a *Accum) AppendBinary(dst []byte) []byte {
	dst = binary.AppendVarint(dst, a.sumI)
	dst = binary.AppendUvarint(dst, math.Float64bits(a.sumF))
	if a.mm == nil {
		return binary.AppendUvarint(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(a.mm.vals.Len()))
	a.mm.vals.Scan(func(_ uint64, k string, v int64) bool {
		dst = binary.AppendVarint(journal.AppendString(dst, k), v)
		return true
	})
	return dst
}

// DecodeAccum reads an accumulator state that AppendBinary wrote from c,
// attaching the given spec. A field that cannot be read, or a value that is
// not the encoding of one value, is c's error; the accumulator returned is
// then to be discarded.
func DecodeAccum(c *journal.Cursor, spec AggSpec) *Accum {
	a := NewAccum(spec)
	a.sumI = c.Varint("accumulator sum")
	a.sumF = math.Float64frombits(c.Uvarint("accumulator float sum"))
	n := c.Count("accumulator value count")
	if n > 0 && a.mm == nil {
		c.Fail("accumulator value count", fmt.Errorf("%d min/max values in the state of a %s accumulator", n, spec.Kind))
	}
	for i := 0; i < n && c.Err() == nil; i++ {
		k, count := c.String("accumulator value"), c.Varint("accumulator value's count")
		switch tup, err := relation.DecodeTuple(k); {
		case c.Err() != nil:
		case err != nil:
			c.Fail("accumulator value", err)
		case len(tup) != 1:
			c.Fail("accumulator value", fmt.Errorf("%d values, want 1", len(tup)))
		default:
			slot, _ := a.mm.vals.Ref(cowmap.Hash(k), k)
			*slot = count
		}
	}
	if a.mm != nil {
		a.mm.known = false
		a.settle()
	}
	return a
}
