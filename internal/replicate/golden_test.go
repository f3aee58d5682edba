package replicate

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	warehouse "repro"
	"repro/internal/journal"
)

// TestGoldenChunkBytes: testdata/parent_chunk.bin is the body the parent
// commit's leader served for GET /replicate/log?from=0 over a log holding a
// committed window, an aborted one and one in flight (which never ships).
// This commit's leader serves the same bytes under the same headers for the
// same records, and its log reads the parent's chunk as the parent's did.
func TestGoldenChunkBytes(t *testing.T) {
	golden, err := os.ReadFile("testdata/parent_chunk.bin")
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	lg := NewLog()
	w := journal.NewWriter(lg)
	must(w.Begin(journal.BeginRecord{Seq: 1, Planner: "minwork", Mode: "dag", Workers: 2, StateDigest: 7, BatchDigest: 8,
		Batch: []journal.ViewBatch{{View: "A", Rows: []journal.RowChange{{Key: "k1", Count: 2}}}}}))
	must(w.Step(journal.StepRecord{Index: 0, Key: "I:A", Work: 2, Digest: 99}))
	must(w.Commit(journal.CommitRecord{TotalWork: 2, ElapsedNS: 5, UnixNano: 1700000000000000009, AcceptUnixNano: 1700000000000000001}))
	must(w.Begin(journal.BeginRecord{Seq: 2, Mode: "sequential"}))
	must(w.Abort(journal.AbortRecord{Reason: "deadline"}))
	must(w.Begin(journal.BeginRecord{Seq: 2, Mode: "sequential"}))
	must(w.Wait())

	leader := NewLeaderFrom(warehouse.New(), lg)
	srv := httptest.NewServer(leader.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/replicate/log?from=0")
	must(err)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	must(err)
	if !bytes.Equal(body, golden) {
		t.Fatalf("the leader ships %d bytes that differ from the parent's %d", len(body), len(golden))
	}
	for header, want := range map[string]string{
		HeaderCRC: "aa5b8e935409e0c7", HeaderNext: "168", HeaderStable: "168",
		HeaderCommitNS: "1700000000000000009", HeaderAcceptNS: "1700000000000000001",
	} {
		if got := resp.Header.Get(header); got != want {
			t.Errorf("%s: %s, the parent sent %s", header, got, want)
		}
	}
	if st := leader.Stats(); st.ShippedRecords != 5 || st.ShippedBytes != 168 {
		t.Errorf("shipped %d records in %d bytes, want 5 in 168", st.ShippedRecords, st.ShippedBytes)
	}

	replica := NewLog()
	if _, err := replica.Write(golden); err != nil {
		t.Fatal(err)
	}
	commitNS, acceptNS := replica.StableTip()
	if replica.StableLen() != 168 || replica.ClosedWindows() != 2 || replica.CommittedWindows() != 1 ||
		commitNS != 1700000000000000009 || acceptNS != 1700000000000000001 {
		t.Fatalf("the parent's chunk reads as stable=%d closed=%d committed=%d tip=%d/%d",
			replica.StableLen(), replica.ClosedWindows(), replica.CommittedWindows(), commitNS, acceptNS)
	}
}
