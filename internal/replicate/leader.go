package replicate

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"

	warehouse "repro"
	"repro/internal/journal"
)

// Protocol headers for GET /replicate/log. The body is raw journal frames;
// the headers carry the offsets and an end-to-end checksum so a follower can
// detect truncated, duplicated, or misdirected chunks before parsing a byte.
const (
	HeaderFrom   = "X-Log-From"   // offset the chunk starts at (echoed)
	HeaderNext   = "X-Log-Next"   // offset after the chunk: From + len(body)
	HeaderStable = "X-Log-Stable" // leader's stable watermark at serve time
	HeaderCRC    = "X-Chunk-CRC"  // CRC64-ECMA of the body, hex
	HeaderEpoch  = "X-Leader-Epoch"
	// HeaderCommitNS / HeaderAcceptNS advertise the leader's stable tip in
	// wall-clock terms: the UnixNano commit time of its latest committed
	// window and that window's batch-accept time (0 when the window did not
	// come from the ingest path). Followers subtract their applied tip to
	// report wall-clock staleness, not just epoch lag.
	HeaderCommitNS = "X-Leader-Commit-NS"
	HeaderAcceptNS = "X-Leader-Accept-NS"
)

// DefaultChunkBytes bounds a log fetch when the client does not say.
const DefaultChunkBytes = 1 << 20

// maxChunkBytes caps client-requested chunk sizes.
const maxChunkBytes = 4 << 20

// Leader publishes a warehouse's journal for followers. Every update window
// run through the leader is journaled into its Log; Handler serves the
// stable prefix in chunks plus shipping stats. A leader is either fresh
// (NewLeader, empty log) or promoted (NewLeaderFrom, continuing a follower's
// replicated log).
type Leader struct {
	w   *warehouse.Warehouse
	log *Log
	j   *warehouse.Journal

	chunksServed atomic.Int64
	shippedBytes atomic.Int64
}

// NewLeader makes w a replication leader with an empty journal log. Windows
// must be run through RunWindow (or with Journal() passed explicitly) to be
// shipped.
func NewLeader(w *warehouse.Warehouse) *Leader {
	log := NewLog()
	return &Leader{w: w, log: log, j: warehouse.NewJournal(log)}
}

// NewLeaderFrom makes w a leader over an already-populated log — promotion
// of a follower that replicated `log` and replayed all of it. New windows
// continue the log's window numbering (aborted windows share their retry's
// sequence number, exactly as on the original leader), new accepts its accept
// numbering, and its pending accepts are the journal's (Journal().Pending).
func NewLeaderFrom(w *warehouse.Warehouse, log *Log) (*Leader, error) {
	image, _, _ := log.Chunk(0, 0)
	j, err := warehouse.ResumeJournal(log, image)
	if err != nil {
		return nil, fmt.Errorf("replicate: resuming the replicated log: %w", err)
	}
	return &Leader{w: w, log: log, j: j}, nil
}

// Warehouse returns the underlying warehouse (for staging changes and
// serving queries).
func (l *Leader) Warehouse() *warehouse.Warehouse { return l.w }

// Journal returns the shipping journal. Pass it as WindowOptions.Journal to
// ship windows run outside RunWindow.
func (l *Leader) Journal() *warehouse.Journal { return l.j }

// Log returns the leader's journal byte log.
func (l *Leader) Log() *Log { return l.log }

// RunWindow runs one update window through the shipping journal: the
// window's records land in the log and its commit advances the stable
// watermark, making it fetchable by followers.
func (l *Leader) RunWindow(opts warehouse.WindowOptions) (warehouse.WindowReport, error) {
	opts.Journal = l.j
	return l.w.RunWindowOpts(opts)
}

// LeaderStats is the leader's replication counter snapshot.
type LeaderStats struct {
	Epoch            uint64 `json:"epoch"`
	StateDigest      uint64 `json:"state_digest"`
	LogBytes         int64  `json:"log_bytes"`
	StableBytes      int64  `json:"stable_bytes"`
	CommittedWindows int    `json:"committed_windows"`
	ChunksServed     int64  `json:"chunks_served"`
	ShippedBytes     int64  `json:"shipped_bytes"`
	// LastCommitNS / LastAcceptNS are the stable tip's wall-clock commit and
	// batch-accept times (UnixNano, 0 when unrecorded) — what the shipping
	// headers advertise to followers.
	LastCommitNS int64 `json:"last_commit_unix_ns"`
	LastAcceptNS int64 `json:"last_accept_unix_ns"`
}

// Stats snapshots the leader's counters.
func (l *Leader) Stats() LeaderStats {
	commitNS, acceptNS := l.log.StableTip()
	return LeaderStats{
		Epoch:            l.w.Epoch(),
		StateDigest:      l.w.StateDigest(),
		LogBytes:         l.log.Len(),
		StableBytes:      l.log.StableLen(),
		CommittedWindows: l.j.Committed(),
		ChunksServed:     l.chunksServed.Load(),
		ShippedBytes:     l.shippedBytes.Load(),
		LastCommitNS:     commitNS,
		LastAcceptNS:     acceptNS,
	}
}

// Handler serves the replication protocol:
//
//	GET /replicate/log?from=N[&max=M] — raw journal frames from offset N
//	GET /replicate/stats              — LeaderStats as JSON
func (l *Leader) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/replicate/log", l.handleLog)
	mux.HandleFunc("/replicate/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(l.Stats())
	})
	return mux
}

func (l *Leader) handleLog(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	from, err := strconv.ParseInt(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		http.Error(w, "bad from offset", http.StatusBadRequest)
		return
	}
	max := int64(DefaultChunkBytes)
	if s := r.URL.Query().Get("max"); s != "" {
		m, err := strconv.ParseInt(s, 10, 64)
		if err != nil || m <= 0 {
			http.Error(w, "bad max", http.StatusBadRequest)
			return
		}
		max = min(m, maxChunkBytes)
	}
	data, stable, err := l.log.Chunk(from, max)
	if err != nil {
		http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(HeaderFrom, strconv.FormatInt(from, 10))
	h.Set(HeaderNext, strconv.FormatInt(from+int64(len(data)), 10))
	h.Set(HeaderStable, strconv.FormatInt(stable, 10))
	h.Set(HeaderCRC, fmt.Sprintf("%016x", journal.ChunkCRC(data)))
	h.Set(HeaderEpoch, strconv.FormatUint(l.w.Epoch(), 10))
	commitNS, acceptNS := l.log.StableTip()
	h.Set(HeaderCommitNS, strconv.FormatInt(commitNS, 10))
	h.Set(HeaderAcceptNS, strconv.FormatInt(acceptNS, 10))
	_, _ = w.Write(data)

	l.chunksServed.Add(1)
	l.shippedBytes.Add(int64(len(data)))
}
