package ingest

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	warehouse "repro"
)

// TestGoldenIngestJournalBytes: testdata/parent_ingest.journal is an ingest
// journal as the last build that had one wrote it, holding accepts, cuts and
// a reset. New refuses to start over it with the reason — its accepts are
// not read, and starting would lose them — and leaves it as it was.
func TestGoldenIngestJournalBytes(t *testing.T) {
	golden, err := os.ReadFile("testdata/parent_ingest.journal")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ingest.journal")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	w := buildFixture(t, fixSeed, fixStores, fixSales)
	if _, err := New(Config{Warehouse: w, JournalPath: path}); err == nil || !strings.Contains(err.Error(), "its accepts are not read") {
		t.Fatalf("New over an ingest journal: %v", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, golden) {
		t.Fatal("the refused ingest journal was changed")
	}
}

// TestIngestJournalWriteFailureIsSticky: after one failed accept append the
// ingester writes nothing more behind the frame that may be half there, and
// is dead the way a killed process is; the next incarnation's open cuts the
// tail and resumes what was accepted.
func TestIngestJournalWriteFailureIsSticky(t *testing.T) {
	wjPath := journalPath(t)
	w := buildFixture(t, fixSeed, fixStores, fixSales)
	wj, err := warehouse.OpenJournal(wjPath)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := New(Config{Warehouse: w, Journal: wj})
	if err != nil {
		t.Fatal(err)
	}
	sets := genSets(fixSeed, fixStores, fixSales, 3, 5)
	if err := ing.Submit("SALES", sets[0].delta(t, w)); err != nil {
		t.Fatal(err)
	}
	wj.Close() // the disk goes away under the ingester
	first := ing.Submit("SALES", sets[1].delta(t, w))
	if first == nil {
		t.Fatal("a change was accepted although its accept record could not be written")
	}
	if err := ing.Submit("SALES", sets[2].delta(t, w)); err == nil || err.Error() != first.Error() {
		t.Fatalf("after a failed append, Submit returns %v, want the first failure %v", err, first)
	}
	if st := ing.Stats(); st.Err == "" || st.AcceptedBatches != 1 {
		t.Fatalf("the ingester outlived its journal: %+v", st)
	}
	if lg := readJournal(t, wjPath); lg.LastAccept() != 1 || len(lg.Pending()) != 1 || lg.Truncated {
		t.Fatalf("journal after the failure: %d accepts, %d pending, torn=%v", lg.LastAccept(), len(lg.Pending()), lg.Truncated)
	}
	reopened, err := warehouse.OpenJournal(wjPath)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	again, err := New(Config{Warehouse: buildFixture(t, fixSeed, fixStores, fixSales), Journal: reopened})
	if err != nil {
		t.Fatal(err)
	}
	if st := again.Stats(); st.Requeued != 1 {
		t.Fatalf("the next incarnation requeued %d accepts, want the 1 accepted", st.Requeued)
	}
}
