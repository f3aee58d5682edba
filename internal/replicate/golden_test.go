package replicate

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	warehouse "repro"
	"repro/internal/journal"
	"repro/internal/strategy"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/parent_chunk.bin with this commit's leader")

// TestGoldenChunkBytes: testdata/parent_chunk.bin is the body the parent
// commit's leader served for GET /replicate/log?from=0 over a log holding an
// accept and the committed window that installs it, an operator's window
// that aborts, an accept between windows, and an operator's window in flight
// — whose accept ships and whose begin record, and the accept behind it, do
// not. This commit's leader serves the same bytes under the same headers for
// the same records, and they read back as the records they were written from.
func TestGoldenChunkBytes(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	accept := func(w *journal.Writer, at int64, key string) {
		t.Helper()
		_, _, err := w.Accept(journal.AcceptRecord{UnixNano: at, Batch: []journal.ViewBatch{{View: "A", Rows: []journal.RowChange{{Key: key, Count: 1}}}}})
		must(err)
	}
	lg := NewLog()
	w := journal.NewWriter(lg)
	accept(w, 1700000000000000001, "k0")
	must(w.Begin(journal.BeginRecord{Seq: 1, Planner: "minwork", Mode: "dag", Workers: 2, StateDigest: 7, BatchDigest: 8,
		Strategy: strategy.Strategy{strategy.Inst{View: "A"}}, Accepts: journal.Range{Lo: 1, Hi: 1}}))
	commit := journal.CommitRecord{TotalWork: 2, ElapsedNS: 5, UnixNano: 1700000000000000009, AcceptUnixNano: 1700000000000000001,
		Steps: []journal.StepRecord{{Key: "I:A", Work: 2, Digest: 99}}}
	must(w.Commit(commit))
	operator := journal.BeginRecord{Seq: 2, Mode: "sequential", Own: true, Batch: []journal.ViewBatch{{View: "A", Rows: []journal.RowChange{{Key: "k1", Count: 2}}}}}
	must(w.Begin(operator))
	must(w.Abort(journal.AbortRecord{Reason: "deadline"}))
	accept(w, 1700000000000000002, "k2")
	must(w.Begin(operator))
	accept(w, 1700000000000000003, "k3")
	must(w.Wait())

	leader, err := NewLeaderFrom(warehouse.New(), lg)
	must(err)
	srv := httptest.NewServer(leader.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/replicate/log?from=0")
	must(err)
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	must(err)
	if *updateGolden {
		must(os.WriteFile("testdata/parent_chunk.bin", body, 0o644))
	}
	golden, err := os.ReadFile("testdata/parent_chunk.bin")
	must(err)
	if !bytes.Equal(body, golden) {
		t.Fatalf("the leader ships %d bytes that differ from the parent's %d", len(body), len(golden))
	}
	for header, want := range map[string]string{
		HeaderCRC: "3eca10a76af813a4", HeaderNext: "261", HeaderStable: "261",
		HeaderCommitNS: "1700000000000000009", HeaderAcceptNS: "1700000000000000001",
	} {
		if got := resp.Header.Get(header); got != want {
			t.Errorf("%s: %s, the parent sent %s", header, got, want)
		}
	}
	if st := leader.Stats(); st.ShippedBytes != 261 || st.CommittedWindows != 1 {
		t.Errorf("shipped %d bytes of %d committed windows, want 261 of 1", st.ShippedBytes, st.CommittedWindows)
	}

	shipped, err := journal.ReadLog(bytes.NewReader(golden))
	must(err)
	if shipped.Size != 261 || shipped.Truncated || len(shipped.Windows) != 2 || shipped.CommittedCount() != 1 || shipped.InFlight() != nil ||
		!reflect.DeepEqual(*shipped.Windows[0].Commit, commit) {
		t.Fatalf("the parent's chunk reads as %d bytes, truncated=%v, %d windows of which %d committed: %+v",
			shipped.Size, shipped.Truncated, len(shipped.Windows), shipped.CommittedCount(), shipped.Windows)
	}
}
