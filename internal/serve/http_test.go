package serve

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	warehouse "repro"
)

// TestHTTPQueryWindowLifecycle drives the full HTTP surface: health and
// readiness, a query, a window commit (epoch flip), the post-window query,
// stats, and the readiness flip on drain.
func TestHTTPQueryWindowLifecycle(t *testing.T) {
	w := newRetail(t)
	s := New(w, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		if _, err := io.Copy(&sb, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, sb.String()
	}
	urlQuery := url.QueryEscape

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("readyz = %d", code)
	}

	code, body := get("/query?q=" + urlQuery(totalsQuery))
	if code != 200 {
		t.Fatalf("query = %d %s", code, body)
	}
	var qr queryResponse
	if err := json.Unmarshal([]byte(body), &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Epoch != 1 || len(qr.Rows) != 2 || qr.Rows[0][1].(float64) != 5 {
		t.Fatalf("query response = %+v", qr)
	}

	stageSale(t, w, 103)
	resp, err := http.Post(srv.URL+"/window", "application/json",
		strings.NewReader(`{"mode":"dag"}`))
	if err != nil {
		t.Fatal(err)
	}
	var wr windowResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || wr.Epoch != 2 || wr.Seq != 1 {
		t.Fatalf("window = %d %+v", resp.StatusCode, wr)
	}

	if code, body := get("/query?q=" + urlQuery(totalsQuery)); code != 200 {
		t.Fatalf("post-window query = %d", code)
	} else {
		var qr2 queryResponse
		if err := json.Unmarshal([]byte(body), &qr2); err != nil {
			t.Fatal(err)
		}
		if qr2.Epoch != 2 || qr2.Rows[0][1].(float64) != 55 {
			t.Fatalf("post-window response = %+v", qr2)
		}
	}

	code, body = get("/stats")
	if code != 200 || !strings.Contains(body, `"WindowsCommitted":1`) {
		t.Fatalf("stats = %d %s", code, body)
	}
	// The window's δSALES read STORES' state through its resident join
	// index; /stats carries every engine counter the warehouse's tally holds.
	var st Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.IndexProbes == 0 || st.EngineCounters != w.Tally().EngineCounters {
		t.Fatalf("stats engine counters = %+v, the tally holds %+v", st.EngineCounters, w.Tally().EngineCounters)
	}
	resp, err = http.Post(srv.URL+"/window", "application/json", strings.NewReader(`{"planner":"minwrok"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("window with an unknown planner = %d, want 400", resp.StatusCode)
	}
	if code, body := get("/query"); code != http.StatusBadRequest {
		t.Fatalf("missing query = %d %s", code, body)
	}

	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d", code)
	}
	if code, _ := get("/query?q=" + urlQuery(totalsQuery)); code != http.StatusServiceUnavailable {
		t.Fatalf("query while draining = %d", code)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Fatal("healthz should stay green through drain")
	}
}

// TestHTTPWindowBudgetAbort: an over-budget window maps to 504 and the
// epoch endpoint still reports the pre-window epoch.
func TestHTTPWindowBudgetAbort(t *testing.T) {
	w := newRetail(t)
	s := New(w, Config{})
	defer s.Close(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	stageSale(t, w, 103)
	resp, err := http.Post(srv.URL+"/window", "application/json",
		strings.NewReader(`{"mode":"dag","budget_ms":0.000001}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("over-budget window = %d", resp.StatusCode)
	}
	var er struct {
		Epoch uint64 `json:"epoch"`
	}
	resp, err = http.Get(srv.URL + "/epoch")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if er.Epoch != 1 {
		t.Fatalf("epoch after aborted window = %d", er.Epoch)
	}
	_ = warehouse.ErrWindowAborted // documented mapping under test above
}

// TestHTTPWindowRefusesABadBudget: a budget_ms that is negative, or too large
// for a time.Duration (1e300 ms would wrap to a negative one), is a bad
// request — not a window with no deadline. So is a negative worker count,
// which once ran as GOMAXPROCS.
func TestHTTPWindowRefusesABadBudget(t *testing.T) {
	w := newRetail(t)
	s := New(w, Config{})
	defer s.Close(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	stageSale(t, w, 103)
	for _, req := range []string{`{"budget_ms":-1}`, `{"budget_ms":-0.5}`, `{"budget_ms":1e300}`, `{"budget_ms":9.3e12}`, `{"workers":-3}`} {
		resp, err := http.Post(srv.URL+"/window", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", req, resp.StatusCode, body)
		}
	}
	if e, tally := s.Epoch(), w.Tally(); e != 1 || tally.Committed+tally.Failed != 0 {
		t.Fatalf("a refused window ran: epoch %d, tally %+v", e, tally)
	}
}

// TestHTTPQueryNonFiniteFloats: NaN and the infinities, which JSON cannot
// hold, come back as the strings Value.String gives; and a response that
// cannot be encoded answers 500 with the reason, not 200 with no body.
func TestHTTPQueryNonFiniteFloats(t *testing.T) {
	w := warehouse.New()
	w.MustDefineBase("F", warehouse.Schema{{Name: "x", Kind: warehouse.KindFloat}})
	if err := w.Load("F", []warehouse.Tuple{
		{warehouse.Float(math.Inf(1))}, {warehouse.Float(math.Inf(-1))}, {warehouse.Float(math.NaN())}, {warehouse.Float(1.5)},
	}); err != nil {
		t.Fatal(err)
	}
	s := New(w, Config{})
	defer s.Close(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/query?q=" + url.QueryEscape("SELECT x FROM F ORDER BY x"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query = %d %s", resp.StatusCode, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("%v in %q", err, body)
	}
	want := []any{"-Inf", 1.5, "+Inf", "NaN"}
	if len(qr.Rows) != len(want) {
		t.Fatalf("rows = %v, want %v", qr.Rows, want)
	}
	for i, r := range qr.Rows {
		if len(r) != 1 || r[0] != want[i] {
			t.Fatalf("rows = %v, want %v", qr.Rows, want)
		}
	}

	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "unsupported value") {
		t.Fatalf("an unencodable response answered %d %q, want 500 with the reason", rec.Code, rec.Body.String())
	}
}
