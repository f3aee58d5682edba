// Package serve turns a warehouse into a long-running query service that
// stays online through update windows. Queries pass through a bounded
// admission queue into a fixed worker pool; when the queue is full the
// server sheds load immediately with ErrOverloaded instead of letting
// latency grow without bound. Each admitted query runs against a pinned
// epoch, so it sees exactly one published warehouse version — never a
// partially installed window — and epochs are monotonic: once any client
// has observed epoch e, no later query is served from an epoch before e.
//
// Update windows run through the same server (RunWindow), serialized by the
// warehouse facade, with an optional wall-clock budget: a window that
// overruns its budget aborts cleanly and leaves the serving epoch unchanged.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	warehouse "repro"
	"repro/internal/ingest"
)

// ErrOverloaded is returned when the admission queue is full: the query was
// shed without queuing. Callers should back off and retry; HTTP frontends
// map it to 503.
var ErrOverloaded = errors.New("serve: admission queue full; query shed")

// ErrClosed is returned for queries submitted after Close began draining
// the server.
var ErrClosed = errors.New("serve: server is draining")

// Config sizes the server. The zero value gets sensible defaults.
type Config struct {
	// QueueDepth bounds the admission queue; a query arriving when
	// QueueDepth queries are already waiting is shed with ErrOverloaded.
	// Default 64.
	QueueDepth int
	// Workers is the query worker pool size. Default GOMAXPROCS.
	Workers int
	// QueryTimeout is the per-query deadline applied when the caller's
	// context carries none; it covers queue wait plus execution. Default 5s;
	// negative disables.
	QueryTimeout time.Duration
	// WindowJournal, when set, journals every window run through the server
	// that does not bring its own journal — the hook replication uses so
	// that the windows POST /window runs are shipped to followers.
	WindowJournal *warehouse.Journal
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 5 * time.Second
	}
	return c
}

// Result is one answered query.
type Result struct {
	// Rows is the query's output, duplicates expanded.
	Rows []warehouse.Tuple
	// Epoch the result was served from.
	Epoch uint64
	// Wait is the time spent in the admission queue, Exec the evaluation
	// time against the pinned epoch.
	Wait, Exec time.Duration
}

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	// Admitted counts queries that entered the queue; Shed those refused
	// with ErrOverloaded; Expired those whose deadline fired while queued;
	// Completed and Failed the executed ones by outcome.
	Admitted, Shed, Expired, Completed, Failed uint64
	// WindowsCommitted and WindowsAborted count the served warehouse's update
	// windows by outcome, whoever ran them — this server, an ingester, a
	// follower's replay (warehouse.WindowTally's Committed and Failed).
	WindowsCommitted, WindowsAborted int64
	// WindowCounters sums every committed window's engine counters — what
	// WindowReport.Counters reports for one window: the build cache's, the
	// memory budget's and the resident join indexes' side of the work — and
	// holds the largest build-cache footprint and reserved build state any
	// window reached (the latter 0 with no memory budget configured).
	warehouse.WindowCounters
	// PlanCache* mirror the warehouse's prepared-plan cache counters: a
	// hit served a query's plan straight from SQL bytes with zero parser
	// work.
	PlanCacheHits, PlanCacheMisses           uint64
	PlanCacheEvictions, PlanCacheInvalidated uint64
	PlanCacheEntries, PlanCacheCap           int
	// Epoch is the current serving epoch, LiveEpochs how many retired
	// epochs readers still pin (plus the current one).
	Epoch      uint64
	LiveEpochs int
	// QueueLen and QueueCap describe the admission queue right now.
	QueueLen, QueueCap int
	// Draining reports the server is closing and refusing new work.
	Draining bool
	// Ingest is the attached continuous ingester's snapshot (nil when the
	// server runs without one); the /ingest endpoint serves it alone.
	Ingest *ingest.Stats `json:",omitempty"`
}

type response struct {
	res Result
	err error
}

type request struct {
	ctx  context.Context
	sql  string
	enq  time.Time
	done chan response
}

// Server is a concurrent query server over one warehouse. Create with New,
// stop with Close. All methods are safe for concurrent use.
type Server struct {
	w   *warehouse.Warehouse
	cfg Config

	queue chan *request
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool
	ing      *ingest.Ingester

	admitted, shed, expired, completed, failed atomic.Uint64

	// gate, when set (tests), runs in the worker before each query executes
	// — a hook to hold workers busy and fill the queue deterministically.
	gate func()
}

// New starts a server over w with cfg's pool and queue. The caller keeps
// ownership of w: staging deltas and running windows directly remains
// legal (the facade serializes mutators, and counts every window in its
// tally, which Stats reports); RunWindow adds the server's budget and
// journal.
func New(w *warehouse.Warehouse, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{w: w, cfg: cfg, queue: make(chan *request, cfg.QueueDepth)}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Warehouse returns the served warehouse.
func (s *Server) Warehouse() *warehouse.Warehouse { return s.w }

// AttachIngest associates a continuous ingester with the server for
// observability: its snapshot rides /stats and the /ingest endpoint. The
// server does not own the ingester's lifecycle — the operator quiesces it
// before closing the server (ingester first, so its final windows still
// publish epochs the drained queries can read).
func (s *Server) AttachIngest(in *ingest.Ingester) {
	s.mu.Lock()
	s.ing = in
	s.mu.Unlock()
}

// Ingester returns the attached continuous ingester, nil when none.
func (s *Server) Ingester() *ingest.Ingester {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ing
}

// Query submits one ad-hoc query. It returns ErrOverloaded without blocking
// if the admission queue is full, ErrClosed if the server is draining, the
// context's error if the deadline fires first (in queue or while waiting),
// and otherwise the rows plus the epoch they were served from.
func (s *Server) Query(ctx context.Context, sql string) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, has := ctx.Deadline(); !has && s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	req := &request{ctx: ctx, sql: sql, enq: time.Now(), done: make(chan response, 1)}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return Result{}, ErrClosed
	}
	select {
	case s.queue <- req:
		s.mu.Unlock()
		s.admitted.Add(1)
	default:
		s.mu.Unlock()
		s.shed.Add(1)
		return Result{}, ErrOverloaded
	}

	select {
	case resp := <-req.done:
		return resp.res, resp.err
	case <-ctx.Done():
		// The worker will observe the dead context and count the expiry;
		// the buffered done channel keeps it from blocking.
		return Result{}, ctx.Err()
	}
}

// worker drains the admission queue until Close closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for req := range s.queue {
		s.serveOne(req)
	}
}

// serveOne answers one admitted query against a pinned epoch.
func (s *Server) serveOne(req *request) {
	wait := time.Since(req.enq)
	if err := req.ctx.Err(); err != nil {
		s.expired.Add(1)
		req.done <- response{err: fmt.Errorf("serve: query expired after %s in queue: %w", wait.Round(time.Microsecond), err)}
		return
	}
	if s.gate != nil {
		s.gate()
	}
	t0 := time.Now()
	rows, epoch, err := s.w.QueryEpoch(req.sql)
	if err != nil {
		s.failed.Add(1)
		req.done <- response{err: err}
		return
	}
	s.completed.Add(1)
	req.done <- response{res: Result{Rows: rows, Epoch: epoch, Wait: wait, Exec: time.Since(t0)}}
}

// RunWindow executes one update window through the server: the staged
// changes are planned and installed as usual, but the window carries the
// server's journal (when opts brings none) and the given context. Queries
// keep flowing during the window — a window commit is an atomic epoch flip,
// so every concurrent query sees exactly the pre- or post-window state. A
// window that exceeds its budget (opts.Timeout) aborts cleanly
// (warehouse.ErrWindowAborted) and leaves the serving epoch unchanged.
func (s *Server) RunWindow(ctx context.Context, opts warehouse.WindowOptions) (warehouse.WindowReport, error) {
	if opts.Journal == nil {
		opts.Journal = s.cfg.WindowJournal
	}
	if ctx != nil {
		if opts.Context == nil {
			opts.Context = ctx
		} else {
			var cancel context.CancelFunc
			opts.Context, cancel = mergeCtx(opts.Context, ctx)
			defer cancel()
		}
	}
	return s.w.RunWindowOpts(opts)
}

// mergeCtx derives a context cancelled when either parent is.
func mergeCtx(a, b context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(a)
	stop := context.AfterFunc(b, cancel)
	return ctx, func() { stop(); cancel() }
}

// Epoch returns the current serving epoch.
func (s *Server) Epoch() uint64 { return s.w.Epoch() }

// Draining reports whether Close has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	draining := s.draining
	qlen := len(s.queue)
	ing := s.ing
	s.mu.Unlock()
	var ingStats *ingest.Stats
	if ing != nil {
		st := ing.Stats()
		ingStats = &st
	}
	pc := s.w.PlanCacheStats()
	t := s.w.Tally()
	return Stats{
		Ingest:               ingStats,
		PlanCacheHits:        pc.Hits,
		PlanCacheMisses:      pc.Misses,
		PlanCacheEvictions:   pc.Evictions,
		PlanCacheInvalidated: pc.Invalidations,
		PlanCacheEntries:     pc.Entries,
		PlanCacheCap:         pc.Cap,
		Admitted:             s.admitted.Load(),
		Shed:                 s.shed.Load(),
		Expired:              s.expired.Load(),
		Completed:            s.completed.Load(),
		Failed:               s.failed.Load(),
		WindowsCommitted:     t.Committed,
		WindowsAborted:       t.Failed,
		WindowCounters:       t.WindowCounters,
		Epoch:                s.w.Epoch(),
		LiveEpochs:           s.w.LiveEpochs(),
		QueueLen:             qlen,
		QueueCap:             s.cfg.QueueDepth,
		Draining:             draining,
	}
}

// Close drains the server: new queries are refused with ErrClosed, queries
// already admitted run to completion, and Close returns when the pool has
// quiesced — or with ctx's error if the drain outlives the context (workers
// keep draining in the background). Close is idempotent.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain incomplete: %w", ctx.Err())
	}
}
