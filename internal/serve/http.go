package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	warehouse "repro"
	"repro/internal/relation"
)

// Handler returns the server's HTTP surface:
//
//	GET/POST /query    — ?q=<sql> or JSON {"sql": ...}; answers with the
//	                     rows and the epoch they were served from. 503 +
//	                     Retry-After when shed, 504 on deadline.
//	POST     /window   — JSON {"planner","mode","workers","budget_ms"};
//	                     runs one update window over the staged changes.
//	GET      /epoch    — current serving epoch.
//	GET      /stats    — counters snapshot.
//	GET      /ingest   — continuous-ingestion snapshot (staleness
//	                     percentiles, queue depth, shed count, batch
//	                     trajectory); 404 when no ingester is attached.
//	GET      /healthz  — 200 while the process lives (liveness).
//	GET      /readyz   — 200 while accepting queries, 503 once draining
//	                     (readiness; flips before connections stop).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/window", s.handleWindow)
	mux.HandleFunc("/epoch", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]uint64{"epoch": s.Epoch()})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		in := s.Ingester()
		if in == nil {
			http.Error(w, "no ingester attached", http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, in.Stats())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	return mux
}

type queryRequest struct {
	SQL string `json:"sql"`
}

type queryResponse struct {
	Epoch  uint64  `json:"epoch"`
	Rows   [][]any `json:"rows"`
	WaitUS int64   `json:"wait_us"`
	ExecUS int64   `json:"exec_us"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sql := r.URL.Query().Get("q")
	if sql == "" && r.Method == http.MethodPost {
		var qr queryRequest
		if err := json.NewDecoder(r.Body).Decode(&qr); err != nil {
			http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		sql = qr.SQL
	}
	if sql == "" {
		http.Error(w, "missing query (?q= or JSON {\"sql\": ...})", http.StatusBadRequest)
		return
	}
	res, err := s.Query(r.Context(), sql)
	if err != nil {
		writeQueryErr(w, err)
		return
	}
	out := queryResponse{
		Epoch:  res.Epoch,
		Rows:   make([][]any, 0, len(res.Rows)),
		WaitUS: res.Wait.Microseconds(),
		ExecUS: res.Exec.Microseconds(),
	}
	for _, t := range res.Rows {
		out.Rows = append(out.Rows, tupleJSON(t))
	}
	writeJSON(w, http.StatusOK, out)
}

type windowRequest struct {
	Planner string `json:"planner"`
	Mode    string `json:"mode"`
	Workers int    `json:"workers"`
	// BudgetMS is the window's wall-clock budget in (possibly fractional)
	// milliseconds; 0 falls back to the server's configured budget. A
	// negative one, or one a time.Duration cannot hold, is refused.
	BudgetMS float64 `json:"budget_ms"`
}

type windowResponse struct {
	Epoch     uint64   `json:"epoch"`
	Seq       int      `json:"seq"`
	Planner   string   `json:"planner"`
	Mode      string   `json:"mode"`
	TotalWork int64    `json:"total_work"`
	ElapsedUS int64    `json:"elapsed_us"`
	Stale     []string `json:"stale,omitempty"`
}

func (s *Server) handleWindow(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var wr windowRequest
	if r.Body != nil {
		// An empty body is fine: every field has a default.
		if err := json.NewDecoder(r.Body).Decode(&wr); err != nil && !errors.Is(err, io.EOF) {
			http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	planner, err := warehouse.ParsePlanner(wr.Planner)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	mode, err := warehouse.ParseMode(wr.Mode)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	budget := wr.BudgetMS * float64(time.Millisecond)
	if !(budget >= 0 && budget < math.MaxInt64) {
		http.Error(w, fmt.Sprintf("budget_ms %g is not a budget: it must be at least 0 and under %d", wr.BudgetMS, math.MaxInt64/int64(time.Millisecond)), http.StatusBadRequest)
		return
	}
	opts := warehouse.WindowOptions{
		Planner: planner,
		Mode:    mode,
		Workers: wr.Workers,
		Timeout: time.Duration(budget),
	}
	rep, err := s.RunWindow(r.Context(), opts)
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, warehouse.ErrWindowAborted):
			code = http.StatusGatewayTimeout
		case errors.Is(err, warehouse.ErrRecoveryNeeded):
			code = http.StatusConflict
		}
		http.Error(w, err.Error(), code)
		return
	}
	writeJSON(w, http.StatusOK, windowResponse{
		Epoch:     s.Epoch(),
		Seq:       rep.Seq,
		Planner:   string(rep.Planner),
		Mode:      string(rep.Mode),
		TotalWork: rep.Report.TotalWork(),
		ElapsedUS: rep.Report.Elapsed.Microseconds(),
		Stale:     rep.StaleAfter,
	})
}

// writeQueryErr maps a Query error onto an HTTP status: shed load is 503
// with a Retry-After hint, a fired deadline 504, anything else 400 (the
// query itself was bad).
func writeQueryErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case isDeadline(err):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func isDeadline(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// tupleJSON converts one result tuple into JSON-friendly values.
func tupleJSON(t warehouse.Tuple) []any {
	out := make([]any, len(t))
	for i, v := range t {
		switch v.Kind() {
		case relation.KindInt:
			out[i] = v.Int()
		case relation.KindFloat:
			out[i] = v.Float()
		case relation.KindString:
			out[i] = v.Str()
		case relation.KindBool:
			out[i] = v.Bool()
		case relation.KindDate:
			out[i] = v.String()
		default:
			out[i] = nil
		}
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "")
	_ = enc.Encode(v)
}
