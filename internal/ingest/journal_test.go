package ingest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/journal"
)

// goldenRecords is what testdata/parent_ingest.journal holds, in order: the
// parent commit's encoders wrote it from these values.
func goldenRecords() []any {
	return []any{
		entry{seq: 1, at: 1700000000000000001, view: "SALES", rows: []journal.RowChange{{Key: "k1", Count: 1}, {Key: "k2", Count: -2}}, n: 3},
		entry{seq: 2, at: 1700000000000000002, view: "STORES", rows: []journal.RowChange{{Key: "\x00s\xff", Count: 1}}, n: 1},
		cutRecord{batch: 1, lo: 1, hi: 2, windowSeq: 1, changes: 4},
		resetRecord{installedHi: 2, committed: 1},
		entry{seq: 3, at: 1700000000000000003, view: "SALES", rows: []journal.RowChange{{Key: "k3", Count: 300}}, n: 300},
		cutRecord{batch: 2, lo: 3, hi: 3, windowSeq: 2, changes: 300},
	}
}

// decodeRecords decodes a journal record by record and re-encodes what it
// decoded: the records, the bytes that were whole frames, and their
// re-encoding.
func decodeRecords(buf []byte) (recs []any, size int64, torn bool, re []byte, err error) {
	size, torn, err = journal.ScanFile(buf, func(typ byte, payload []byte, _ int) error {
		var rec any
		var again []byte
		var err error
		switch typ {
		case typeAccept:
			var e entry
			e, err = decodeAccept(payload)
			rec, again = e, encodeAccept(e)
		case typeCut:
			var c cutRecord
			c, err = decodeCut(payload)
			rec, again = c, encodeCut(c)
		case typeReset:
			var rr resetRecord
			rr, err = decodeReset(payload)
			rec, again = rr, encodeReset(rr)
		default:
			err = fmt.Errorf("unknown record type %#x", typ)
		}
		recs, re = append(recs, rec), append(re, journal.EncodeFrame(typ, again)...)
		return err
	})
	return recs, size, torn, re, err
}

// TestGoldenIngestJournalBytes: an ingest journal written by the parent
// commit decodes to the records it was written from, re-encodes to the same
// bytes, and reconciles as it did there.
func TestGoldenIngestJournalBytes(t *testing.T) {
	const path = "testdata/parent_ingest.journal"
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, size, torn, re, err := decodeRecords(golden)
	if err != nil || torn || size != int64(len(golden)) {
		t.Fatalf("the golden journal reads as torn=%v size=%d of %d: %v", torn, size, len(golden), err)
	}
	if want := goldenRecords(); !reflect.DeepEqual(recs, want) {
		t.Fatalf("the golden journal decodes to\n%+v\nwant\n%+v", recs, want)
	}
	if !bytes.Equal(re, golden) {
		t.Fatal("re-encoding the golden journal's records does not give its bytes back")
	}
	sum, err := InspectJournal(path, 2)
	want := JournalSummary{Accepts: 3, AcceptedChanges: 304, Cuts: 1, Resets: 1, InstalledFloor: 3}
	if err != nil || sum != want {
		t.Fatalf("InspectJournal = %+v, %v; want %+v", sum, err, want)
	}
}

// TestIngestJournalWriteFailureIsSticky: after one failed append the
// ingester writes nothing more behind the frame that may be half there, and
// is dead the way a killed process is; the next incarnation's open cuts the
// tail and resumes what was accepted.
func TestIngestJournalWriteFailureIsSticky(t *testing.T) {
	ijPath := filepath.Join(t.TempDir(), "ingest.journal")
	w := buildFixture(t, fixSeed, fixStores, fixSales)
	ing, err := New(Config{Warehouse: w, JournalPath: ijPath})
	if err != nil {
		t.Fatal(err)
	}
	sets := genSets(fixSeed, fixStores, fixSales, 3, 5)
	if err := ing.Submit("SALES", sets[0].delta(t, w)); err != nil {
		t.Fatal(err)
	}
	ing.jf.Close() // the disk goes away under the ingester
	first := ing.Submit("SALES", sets[1].delta(t, w))
	if first == nil {
		t.Fatal("a change was accepted although its journal record could not be written")
	}
	if err := ing.Submit("SALES", sets[2].delta(t, w)); err == nil || err.Error() != first.Error() {
		t.Fatalf("after a failed append, Submit returns %v, want the first failure %v", err, first)
	}
	if st := ing.Stats(); st.Err == "" || st.AcceptedBatches != 1 {
		t.Fatalf("the ingester outlived its journal: %+v", st)
	}
	sum, err := InspectJournal(ijPath, 0)
	if err != nil || sum.Accepts != 1 || sum.Torn {
		t.Fatalf("journal after the failure: %+v, %v", sum, err)
	}
}

// FuzzIngestJournal feeds arbitrary bytes to the ingest journal's reader: it
// must not panic, must report a torn tail exactly when bytes remain behind
// the whole frames, and — every frame that passes its CRC having been written
// by these encoders — what it decodes must re-encode to those frames byte for
// byte.
func FuzzIngestJournal(f *testing.F) {
	golden, err := os.ReadFile("testdata/parent_ingest.journal")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)-5])
	f.Add([]byte{})
	f.Add([]byte{typeAccept, 0xff, 0xff, 0xff, 0xff})
	f.Add(journal.EncodeFrame(typeCut, []byte{1, 2, 3}))
	f.Add(journal.EncodeFrame(0x13, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		var v journalView
		size, torn, err := journal.ScanFile(data, v.feed)
		if err != nil {
			return
		}
		if torn != (size < int64(len(data))) {
			t.Fatalf("torn=%v with %d of %d bytes whole frames", torn, size, len(data))
		}
		recs, size2, _, re, err := decodeRecords(data)
		if err != nil || size2 != size {
			t.Fatalf("a second read differs: %d bytes of whole frames (%v), first %d", size2, err, size)
		}
		if !bytes.Equal(re, data[:size]) {
			t.Fatalf("the %d decoded records re-encode to %d bytes that differ from the %d they were read from", len(recs), len(re), size)
		}
	})
}
