package delta

import (
	"runtime"
	"testing"

	"repro/internal/journal"
	"repro/internal/relation"
)

// TestDecodeAccumBoundsValueLength: an accumulator state is unverified input
// when it is read, so a value whose length prefix claims more bytes than the
// state holds is an error, and what the decoder allocates is bounded by the
// bytes it was given. The state is 8 bytes: a zero sum, a zero float sum, one
// MIN value, and that value's length prefix, 2^31.
func TestDecodeAccumBoundsValueLength(t *testing.T) {
	state := []byte{0x00, 0x00, 0x01, 0x80, 0x80, 0x80, 0x80, 0x08}
	spec := AggSpec{Kind: AggMin, ValueKind: relation.KindInt}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := journal.NewCursor("test: accumulator", state)
	DecodeAccum(c, spec)
	err := c.Done()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a value longer than the state was decoded")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("decoding 8 bytes allocated %d bytes", n)
	}
}
