// Command whserverd is a long-running warehouse service: it serves ad-hoc
// OLAP queries over HTTP while update windows run, demonstrating the online
// update window end to end. Queries pass through a bounded admission queue
// (full queue → immediate 503, Retry-After: 1) and each one is answered
// from a pinned epoch, so results are snapshot-isolated across window
// commits: a client sees exactly the pre- or post-window state, never a
// blend, and epochs never go backwards.
//
//	whserverd [-addr :8080] [-queue 64] [-workers N] [-query-timeout 5s]
//	          [-window-budget 0] [-window-every 0] [-mode sequential|staged|dag]
//	          [-planner minwork|prune|dualstage|shared]
//	          [-share] [-mem-budget-mb 0] [-pprof addr] [-stores 8] [-sales 2000]
//	          [-seed 7] [-follow leader-addr] [-fetch-interval 100ms]
//	          [-ingest] [-ingest-rate 500] [-ingest-slo 200ms]
//	          [-ingest-queue 4096]
//
// The served warehouse is the retail demo VDAG (SALES/STORES bases, a join
// view, an aggregate summary), populated from -seed. With -window-every set,
// the daemon stages a synthetic change batch and runs an update window on
// that period — windows whose wall-clock exceeds -window-budget abort
// cleanly and leave the serving epoch unchanged. Windows can also be
// triggered externally with POST /window. /stats and the drain line count
// every window the warehouse committed or failed, whichever path ran it.
//
// With -ingest the daemon runs the continuous-ingestion regime instead of
// the periodic driver: a synthetic producer streams sales changes at
// -ingest-rate row-changes per second into a bounded staging queue
// (-ingest-queue), and micro-batch windows over what the queue holds keep the
// views fresh against the -ingest-slo p99 staleness target, which sets each
// window's deadline. Each accepted change set is a record of the leader's
// journal, and each window's begin record names the ones it installs, so
// accepted changes ship to followers beside the windows. The ingester owns
// the window schedule, so -ingest excludes -window-every, -window-budget and
// -follow, and POST /window answers 409; GET /ingest reports the freshness
// snapshot. On
// shutdown the ingester is quiesced first — its queue drains through final
// windows — before the HTTP listener and query server close, so a drain
// never strands accepted changes.
//
// Without -follow the daemon is a replication leader: every update window is
// journaled and the journal is published under /replicate/ for followers.
// With -follow <leader-addr> it is a follower: it builds the identical demo
// warehouse (same -stores/-sales/-seed), continuously fetches the leader's
// journal, replays each committed window with full digest verification, and
// serves queries at its own — possibly stale — epoch. Followers are
// read-only (POST /window answers 403, and -window-budget is refused) and
// report their staleness on /lag.
//
// Endpoints: /query, /window, /epoch, /stats, /healthz (liveness),
// /readyz (readiness; flips to 503 the moment a drain begins). Leaders add
// /replicate/log and /replicate/stats; followers add /lag and
// /replicate/stats.
//
// With -pprof set, the standard net/http/pprof profiling endpoints are
// served on that address through a separate mux, so profiling traffic never
// competes with (or exposes itself to) query clients.
//
// SIGINT/SIGTERM drain gracefully: readiness goes red, in-flight queries
// finish, new ones are refused, and the process exits 0. A second signal
// kills the process immediately (NotifyContext restores default handling).
//
// Exit codes: 0 clean shutdown, 1 startup or serve error, 2 usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	warehouse "repro"
	"repro/internal/ingest"
	"repro/internal/replicate"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	queue := flag.Int("queue", 64, "admission queue depth (full queue sheds with 503)")
	workers := flag.Int("workers", 0, "query worker pool size (0 = GOMAXPROCS)")
	queryTimeout := flag.Duration("query-timeout", 5*time.Second, "per-query deadline (queue wait + execution)")
	windowBudget := flag.Duration("window-budget", 0, "wall-clock budget per update window (0 = unbounded)")
	windowEvery := flag.Duration("window-every", 0, "stage a synthetic batch and run a window on this period (0 = off)")
	mode := flag.String("mode", "dag", "window scheduling: sequential | staged | dag")
	plannerName := flag.String("planner", "minwork", "window planner: minwork | prune | dualstage | shared")
	share := flag.Bool("share", false, "enable window-wide shared computation for update windows")
	memBudgetMB := flag.Int64("mem-budget-mb", 0, "window memory budget in MiB; oversized builds spill to disk (0 = unbounded)")
	planCacheSize := flag.Int("plan-cache-size", 256, "prepared-plan cache capacity for the query path (0 disables)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (separate mux; empty = off)")
	stores := flag.Int("stores", 8, "demo warehouse: number of stores")
	sales := flag.Int("sales", 2000, "demo warehouse: initial sales rows")
	seed := flag.Int64("seed", 7, "demo warehouse generation seed")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "max time to wait for in-flight work on shutdown")
	follow := flag.String("follow", "", "run as a follower of this leader (host:port or URL); serve reads at a possibly-stale epoch")
	fetchInterval := flag.Duration("fetch-interval", 100*time.Millisecond, "follower: idle poll period against the leader's journal")
	ingestOn := flag.Bool("ingest", false, "continuous ingestion: synthetic producer + micro-batch windows over what the queue holds (excludes -window-every and -follow)")
	ingestRate := flag.Int("ingest-rate", 500, "continuous ingestion: producer rate in row-changes per second")
	ingestSLO := flag.Duration("ingest-slo", 200*time.Millisecond, "continuous ingestion: p99 staleness target; a window's deadline is half of it, doubled after each abort")
	ingestQueue := flag.Int("ingest-queue", 4096, "continuous ingestion: staging queue bound in row-changes (backpressure past this)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, config{
		addr: *addr, queue: *queue, workers: *workers,
		queryTimeout: *queryTimeout, windowBudget: *windowBudget,
		windowEvery: *windowEvery, mode: *mode, planner: *plannerName,
		share: *share, memBudgetMB: *memBudgetMB,
		planCacheSize: *planCacheSize, pprofAddr: *pprofAddr,
		stores: *stores, sales: *sales, seed: *seed, drainTimeout: *drainTimeout,
		follow: *follow, fetchInterval: *fetchInterval,
		ingest: *ingestOn, ingestRate: *ingestRate, ingestSLO: *ingestSLO,
		ingestQueue: *ingestQueue,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "whserverd:", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError marks a flag value or combination run refuses before it builds
// anything (exit code 2).
type usageError struct{ error }

type config struct {
	addr                       string
	queue, workers             int
	queryTimeout, windowBudget time.Duration
	windowEvery, drainTimeout  time.Duration
	mode, planner              string
	share                      bool
	memBudgetMB                int64
	planCacheSize              int
	pprofAddr                  string
	stores, sales              int
	seed                       int64
	follow                     string // leader address; empty = lead
	fetchInterval              time.Duration
	ingest                     bool // continuous ingestion replaces the periodic driver
	ingestRate                 int  // producer row-changes per second
	ingestSLO                  time.Duration
	ingestQueue                int
	ready                      chan<- string      // receives the bound address (tests); may be nil
	drained                    chan<- drainReport // receives the post-drain journal state (tests); may be nil
}

// drainReport is what a finished drain leaves behind, surfaced to tests: the
// leader's shipped log and the ingester's and the server's last stats.
type drainReport struct {
	log    *replicate.Log
	ingest ingest.Stats
	stats  serve.Stats
}

// run builds the demo warehouse, serves it until ctx is cancelled, then
// drains and returns. Without cfg.follow the daemon leads — every window is
// journaled into an in-memory log published under /replicate/. With
// cfg.follow it follows: the same demo warehouse is rebuilt locally and
// the leader's journal is continuously fetched and replayed.
func run(ctx context.Context, cfg config) error {
	if cfg.follow != "" && cfg.windowEvery > 0 {
		return usageError{fmt.Errorf("-window-every cannot be combined with -follow: a follower replays the leader's windows")}
	}
	if cfg.follow != "" && cfg.windowBudget != 0 {
		return usageError{fmt.Errorf("-window-budget cannot be combined with -follow: a follower runs no window of its own")}
	}
	if cfg.ingest {
		if cfg.follow != "" {
			return usageError{fmt.Errorf("-ingest cannot be combined with -follow: a follower replays the leader's windows")}
		}
		if cfg.windowEvery > 0 {
			return usageError{fmt.Errorf("-ingest replaces -window-every: the ingester owns the window schedule")}
		}
		if cfg.windowBudget != 0 {
			return usageError{fmt.Errorf("-window-budget cannot be combined with -ingest: -ingest-slo sets each window's deadline")}
		}
		if cfg.ingestRate <= 0 {
			return usageError{fmt.Errorf("-ingest-rate must be positive (got %d)", cfg.ingestRate)}
		}
	}
	// A mistyped name would otherwise be accepted here and fail every window
	// (and stop the ingester at its first batch).
	planner, err := warehouse.ParsePlanner(cfg.planner)
	if err != nil {
		return usageError{fmt.Errorf("-planner: %w", err)}
	}
	mode, err := warehouse.ParseMode(cfg.mode)
	if err != nil {
		return usageError{fmt.Errorf("-mode: %w", err)}
	}
	memBudget, err := warehouse.MiB(cfg.memBudgetMB)
	if err != nil {
		return usageError{fmt.Errorf("-mem-budget-mb: %w", err)}
	}
	w, gen, err := buildDemo(cfg.stores, cfg.sales, cfg.seed)
	if err != nil {
		return err
	}
	if cfg.share {
		w.SetSharing(true)
	}
	if memBudget > 0 {
		w.SetMemoryBudget(memBudget)
		fmt.Printf("whserverd: window memory budget %dMiB (oversized builds spill to disk)\n", cfg.memBudgetMB)
	}
	w.SetPlanCache(cfg.planCacheSize)
	svCfg := serve.Config{
		QueueDepth:   cfg.queue,
		Workers:      cfg.workers,
		QueryTimeout: cfg.queryTimeout,
		WindowBudget: cfg.windowBudget,
	}
	var leader *replicate.Leader
	var follower *replicate.Follower
	if cfg.follow == "" {
		// Leader: every window — driver loop or POST /window — lands in the
		// shipped journal.
		leader = replicate.NewLeader(w)
		svCfg.WindowJournal = leader.Journal()
	}
	s := serve.New(w, svCfg)

	var ing *ingest.Ingester
	if cfg.ingest {
		// The ingester commits through the leader's shipped journal, so its
		// micro-batch windows replicate to followers like any other window.
		ing, err = ingest.New(ingest.Config{
			Warehouse:  w,
			Journal:    leader.Journal(),
			SLO:        cfg.ingestSLO,
			QueueLimit: cfg.ingestQueue,
			Planner:    planner,
			Mode:       mode,
			Workers:    cfg.workers,
		})
		if err != nil {
			return fmt.Errorf("ingester: %w", err)
		}
		s.AttachIngest(ing)
	}

	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	if ing != nil {
		// The ingester owns the window schedule; an operator-triggered window
		// would race its journal sequencing.
		mux.HandleFunc("/window", func(rw http.ResponseWriter, r *http.Request) {
			http.Error(rw, "windows are driven by the continuous ingester; see GET /ingest", http.StatusConflict)
		})
	}
	if leader != nil {
		mux.Handle("/replicate/", leader.Handler())
	} else {
		follower = replicate.NewFollower(w, replicate.FollowerConfig{
			Leader:   leaderURL(cfg.follow),
			Interval: cfg.fetchInterval,
		})
		fh := follower.Handler()
		mux.Handle("/lag", fh)
		mux.Handle("/replicate/", fh)
		mux.HandleFunc("/window", func(rw http.ResponseWriter, r *http.Request) {
			http.Error(rw, "read-only follower: windows replicate from the leader", http.StatusForbidden)
		})
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	role := "leading"
	if follower != nil {
		role = "following " + follower.LeaderAddr()
	} else if ing != nil {
		role = fmt.Sprintf("leading, ingesting %d changes/s (slo=%s)", cfg.ingestRate, cfg.ingestSLO)
	}
	planCache := "plan-cache=off"
	if cfg.planCacheSize > 0 {
		planCache = fmt.Sprintf("plan-cache=%d", cfg.planCacheSize)
	}
	fmt.Printf("whserverd: serving %d views on %s (queue=%d, epoch=%d, share=%v, %s, %s)\n",
		len(w.Views()), ln.Addr(), cfg.queue, s.Epoch(), cfg.share, planCache, role)
	if cfg.ready != nil {
		cfg.ready <- ln.Addr().String()
	}

	var ps *http.Server
	if cfg.pprofAddr != "" {
		pln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		ps = &http.Server{Handler: pprofMux()}
		go func() { _ = ps.Serve(pln) }()
		fmt.Printf("whserverd: pprof on %s\n", pln.Addr())
	}

	windows := make(chan error, 1)
	if cfg.windowEvery > 0 {
		go windowDriver(ctx, s, gen, cfg, warehouse.WindowOptions{Planner: planner, Mode: mode}, windows)
	}
	if ing != nil {
		// The window loop outlives ctx on purpose: a signal stops the
		// producer, then Close drains the queue through final windows.
		go func() {
			if err := ing.Run(context.Background()); err != nil && ctx.Err() == nil {
				windows <- fmt.Errorf("ingest window loop: %w", err)
			}
		}()
		go ingestProducer(ctx, ing, w, gen, cfg.ingestRate, windows)
	}
	if follower != nil {
		go func() {
			err := follower.Run(ctx)
			if err != nil && ctx.Err() == nil {
				windows <- fmt.Errorf("replication: %w", err)
			}
		}()
	}

	var runErr error
	select {
	case <-ctx.Done():
		fmt.Println("whserverd: signal received, draining")
	case runErr = <-serveErr:
	case runErr = <-windows:
	}

	// Drain: the ingester quiesces first — its queue flushes through final
	// windows while queries still answer, so accepted changes are never
	// stranded and the drained epoch includes them. Then readiness flips red
	// (Draining) and in-flight requests finish.
	shutCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if ing != nil {
		if err := ing.Close(shutCtx); err != nil && runErr == nil {
			runErr = fmt.Errorf("ingest drain: %w", err)
		}
	}
	if err := hs.Shutdown(shutCtx); err != nil && runErr == nil {
		runErr = fmt.Errorf("http shutdown: %w", err)
	}
	if err := s.Close(shutCtx); err != nil && runErr == nil {
		runErr = err
	}
	if ps != nil {
		_ = ps.Shutdown(shutCtx)
	}
	if errors.Is(runErr, http.ErrServerClosed) {
		runErr = nil
	}
	st := s.Stats()
	fmt.Printf("whserverd: drained (epoch=%d, served=%d, shed=%d, windows=%d committed / %d aborted)\n",
		st.Epoch, st.Completed, st.Shed, st.WindowsCommitted, st.WindowsAborted)
	if ing != nil {
		ist := ing.Stats()
		fmt.Printf("whserverd: ingest drained (accepted=%d, shed=%d, windows=%d, p99 staleness %.1fms)\n",
			ist.Accepted, ist.Shed, ist.Windows, ist.StalenessP99MS)
		if cfg.drained != nil {
			cfg.drained <- drainReport{log: leader.Log(), ingest: ist, stats: st}
		}
	}
	return runErr
}

// ingestProducer streams synthetic sales changes into the ingester at
// roughly rate row-changes per second until ctx is cancelled. Shed changes
// (backpressure) are dropped and counted by the ingester; pacing does not
// stop. Anything harder than shedding kills the daemon via out.
func ingestProducer(ctx context.Context, ing *ingest.Ingester, w *warehouse.Warehouse, gen *demoGen, rate int, out chan<- error) {
	const per = 8 // row-changes per submission
	interval := time.Duration(float64(time.Second) * per / float64(rate))
	if interval < 100*time.Microsecond {
		interval = 100 * time.Microsecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		d, err := w.NewDelta("SALES")
		if err != nil {
			out <- fmt.Errorf("ingest producer: %w", err)
			return
		}
		for i := 0; i < per; i++ {
			d.Add(gen.sale(), 1)
		}
		switch err := ing.Submit("SALES", d); {
		case err == nil:
		case errors.Is(err, ingest.ErrIngestOverloaded):
			// Shed under backpressure: drop this batch and keep pacing.
		case errors.Is(err, ingest.ErrIngestClosed) || ctx.Err() != nil:
			return
		default:
			out <- fmt.Errorf("ingest producer: %w", err)
			return
		}
	}
}

// leaderURL normalizes a -follow operand: a bare host:port gets an http://
// scheme so it can be handed straight to the follower.
func leaderURL(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimSuffix(addr, "/")
}

// pprofMux builds a mux carrying only the net/http/pprof endpoints, kept
// separate from the query mux so profiling is opt-in and unexposed by
// default.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// windowDriver periodically stages a synthetic sales batch and runs an
// update window through the server. Aborted (over-budget) windows are
// logged and the staged batch carries over into the next period.
func windowDriver(ctx context.Context, s *serve.Server, gen *demoGen, cfg config, opts warehouse.WindowOptions, out chan<- error) {
	tick := time.NewTicker(cfg.windowEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if err := gen.stageBatch(s.Warehouse()); err != nil {
			out <- fmt.Errorf("staging batch: %w", err)
			return
		}
		rep, err := s.RunWindow(ctx, opts)
		switch {
		case errors.Is(err, warehouse.ErrWindowAborted):
			if ctx.Err() != nil {
				return // shutting down
			}
			fmt.Printf("whserverd: window aborted (budget %s); batch stays staged\n", cfg.windowBudget)
		case err != nil:
			out <- fmt.Errorf("update window: %w", err)
			return
		default:
			fmt.Printf("whserverd: committed %s -> epoch %d\n", rep, s.Epoch())
		}
	}
}

// demoGen generates synthetic change batches for the demo warehouse.
type demoGen struct {
	rng    *rand.Rand
	stores int
	nextID int64
}

// buildDemo assembles the retail demo warehouse: STORES and SALES bases, a
// join view, and a regional aggregate, populated from seed.
func buildDemo(stores, sales int, seed int64) (*warehouse.Warehouse, *demoGen, error) {
	if stores < 1 || sales < 0 {
		return nil, nil, fmt.Errorf("demo warehouse needs stores >= 1 and sales >= 0 (got %d, %d)", stores, sales)
	}
	w := warehouse.New()
	w.MustDefineBase("STORES", warehouse.Schema{
		{Name: "store_id", Kind: warehouse.KindInt},
		{Name: "region", Kind: warehouse.KindString},
	})
	w.MustDefineBase("SALES", warehouse.Schema{
		{Name: "sale_id", Kind: warehouse.KindInt},
		{Name: "store_id", Kind: warehouse.KindInt},
		{Name: "amount", Kind: warehouse.KindFloat},
	})
	w.MustDefineViewSQL("SALES_BY_STORE", `
		SELECT s.sale_id, s.amount, st.region
		FROM SALES s, STORES st
		WHERE s.store_id = st.store_id`)
	w.MustDefineViewSQL("REGION_TOTALS", `
		SELECT region, SUM(amount) AS total, COUNT(*) AS n
		FROM SALES_BY_STORE GROUP BY region`)

	regions := []string{"north", "south", "east", "west"}
	rng := rand.New(rand.NewSource(seed))
	var storeRows []warehouse.Tuple
	for i := 0; i < stores; i++ {
		storeRows = append(storeRows, warehouse.Tuple{
			warehouse.Int(int64(i + 1)),
			warehouse.String(regions[i%len(regions)]),
		})
	}
	if err := w.Load("STORES", storeRows); err != nil {
		return nil, nil, err
	}
	gen := &demoGen{rng: rng, stores: stores, nextID: 1}
	var saleRows []warehouse.Tuple
	for i := 0; i < sales; i++ {
		saleRows = append(saleRows, gen.sale())
	}
	if err := w.Load("SALES", saleRows); err != nil {
		return nil, nil, err
	}
	if err := w.Refresh(); err != nil {
		return nil, nil, err
	}
	return w, gen, nil
}

// sale generates one synthetic sales row. Amounts are quarter-unit prices:
// multiples of 0.25 are exact in binary floating point, so SUM(amount) is
// exact regardless of accumulation order and independently built replicas
// digest identically (cent prices are inexact and make the aggregate's low
// bits depend on map iteration order).
func (g *demoGen) sale() warehouse.Tuple {
	id := g.nextID
	g.nextID++
	return warehouse.Tuple{
		warehouse.Int(id),
		warehouse.Int(int64(g.rng.Intn(g.stores) + 1)),
		warehouse.Float(float64(g.rng.Intn(10000)) / 4),
	}
}

// stageBatch stages ~1% of the initial sales volume as new inserts.
func (g *demoGen) stageBatch(w *warehouse.Warehouse) error {
	d, err := w.NewDelta("SALES")
	if err != nil {
		return err
	}
	n := 1 + g.rng.Intn(20)
	for i := 0; i < n; i++ {
		d.Add(g.sale(), 1)
	}
	return w.StageDelta("SALES", d)
}
