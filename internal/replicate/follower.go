package replicate

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	warehouse "repro"
	"repro/internal/faults"
	"repro/internal/journal"
)

// ErrFollowerDead is wrapped by errors a dead follower returns: a replayed
// window diverged from the leader's digests, or a crash-class injected fault
// killed the replica. A dead follower refuses further polls; the operator
// (or test) rebuilds it from the sources and lets it catch up from zero.
var ErrFollowerDead = errors.New("replicate: follower is dead")

// FollowerConfig configures a follower.
type FollowerConfig struct {
	// Leader is the leader's base URL (e.g. "http://10.0.0.1:8080").
	Leader string
	// Client issues the fetches; http.DefaultClient when nil.
	Client *http.Client
	// ChunkBytes bounds each log fetch; DefaultChunkBytes when 0.
	ChunkBytes int64
	// Interval is Run's idle poll period once caught up; 50ms when 0.
	Interval time.Duration
	// Faults injects failures for testing: point "fetch" before each log
	// fetch (transient = disconnect, crash = process death), point "apply"
	// before each window replay.
	Faults *faults.Injector
	// OnApply, when set, is called after each successfully replayed window —
	// the differential harness's observation hook.
	OnApply func(warehouse.WindowReport)
	// Sleep replaces the pauses of CatchUp and Run (tests); nil pauses until
	// the delay passes or the context is done.
	Sleep func(time.Duration)
}

// The reconnect pause after a failed poll: firstReconnect, doubling up to
// maxReconnect, and back to firstReconnect after a poll that succeeds.
const (
	firstReconnect = 10 * time.Millisecond
	maxReconnect   = time.Second
)

// Follower replicates a leader's journal onto its own warehouse. It fetches
// stable journal bytes from its high-water mark, verifies each chunk
// end-to-end (offset echo, length, CRC64) and each frame individually, and
// replays every committed window through warehouse.ApplyWindow — so its
// epoch flips only after the window re-executes with the leader's exact
// per-step digests. The applied bytes — closed windows, and the accepts
// between them — are retained verbatim in the follower's own Log, which makes
// high-water marks byte-comparable across followers and promotion a pointer
// swap.
//
// Poll, CatchUp, and Run must not be called concurrently with each other;
// Stats, Lag, Handler, and queries on Warehouse() are safe at any time.
type Follower struct {
	w   *warehouse.Warehouse
	cfg FollowerConfig
	log *Log

	// Owned by the polling goroutine: the fetched-but-unapplied tail. pend
	// always starts on a window boundary; parse marks how much of it has
	// been fed to asm. tip is the commit record of the last window applied,
	// which the log's watermark carries.
	pend  []byte
	parse int
	asm   journal.Assembler
	tip   journal.CommitRecord

	mu             sync.Mutex // guards the fields below (Stats readers)
	leaderEpoch    uint64
	leaderStable   int64
	leaderCommitNS int64 // leader's stable-tip commit time (last contact)
	leaderAcceptNS int64 // and its batch-accept time
	lastContact    time.Time
	shipped        int64
	reconnects     int64
	fatal          error
}

// NewFollower starts replicating onto w, which must be built from the same
// sources as the leader's initial state (same seed warehouse). The follower
// does no I/O until Poll/CatchUp/Run.
func NewFollower(w *warehouse.Warehouse, cfg FollowerConfig) *Follower {
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = DefaultChunkBytes
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 50 * time.Millisecond
	}
	return &Follower{w: w, cfg: cfg, log: NewLog()}
}

// Warehouse returns the follower's warehouse — serve reads from it at its
// own, possibly stale, epoch.
func (f *Follower) Warehouse() *warehouse.Warehouse { return f.w }

// HWM is the follower's high-water mark: the byte offset of replicated,
// fully applied journal. It is directly comparable across followers of the
// same leader (the log bytes are identical), which is what failover election
// compares.
func (f *Follower) HWM() int64 { return f.log.Len() }

// Redirect re-points the follower at a new leader after failover, keeping
// its applied state and high-water mark. Any unapplied fetched tail is
// dropped and re-fetched from the new leader.
func (f *Follower) Redirect(leaderURL string) {
	f.rewind()
	f.mu.Lock()
	f.cfg.Leader = leaderURL
	f.mu.Unlock()
}

// Promote turns the follower into a leader over its applied log. Only fully
// applied windows and the accepts between them are in the log (unapplied
// tail bytes are discarded), so the new leader's journal, state, and epoch
// agree by construction. The follower must not be polled afterwards.
func (f *Follower) Promote() (*Leader, error) {
	f.rewind()
	return NewLeaderFrom(f.w, f.log)
}

// rewind drops the unapplied tail; the next poll re-fetches from the HWM.
func (f *Follower) rewind() {
	f.pend = nil
	f.parse = 0
	f.asm.Reset()
}

// leaderURL resolves the configured leader under f.mu (Redirect may race a
// Stats reader, never the poller itself).
func (f *Follower) leaderURL() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return strings.TrimSuffix(f.cfg.Leader, "/")
}

// LeaderAddr reports the leader currently being followed.
func (f *Follower) LeaderAddr() string { return f.leaderURL() }

// Poll runs one fetch-verify-apply round and returns how many windows it
// applied. Transport failures, torn or corrupt chunks, and transient
// injected faults return an error with the follower's state intact — the
// unapplied tail is rewound so the next Poll re-fetches from the high-water
// mark. Divergence and crash-class faults kill the follower (ErrFollowerDead).
func (f *Follower) Poll(ctx context.Context) (applied int, err error) {
	if err := f.dead(); err != nil {
		return 0, err
	}
	if err := f.cfg.Faults.Hit("fetch"); err != nil {
		if faults.IsCrash(err) {
			return 0, f.kill(err)
		}
		return 0, f.disconnect(fmt.Errorf("replicate: fetch: %w", err))
	}
	from := f.HWM() + int64(len(f.pend))
	url := fmt.Sprintf("%s/replicate/log?from=%d&max=%d", f.leaderURL(), from, f.cfg.ChunkBytes)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, f.disconnect(err)
	}
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		return 0, f.disconnect(err)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxChunkBytes+1))
	resp.Body.Close()
	if err != nil {
		return 0, f.disconnect(err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, f.disconnect(fmt.Errorf("replicate: leader returned %s: %s", resp.Status, strings.TrimSpace(string(body))))
	}
	if err := f.verifyChunk(resp.Header, from, body); err != nil {
		return 0, f.disconnect(err)
	}

	stable, _ := strconv.ParseInt(resp.Header.Get(HeaderStable), 10, 64)
	epoch, _ := strconv.ParseUint(resp.Header.Get(HeaderEpoch), 10, 64)
	commitNS, _ := strconv.ParseInt(resp.Header.Get(HeaderCommitNS), 10, 64)
	acceptNS, _ := strconv.ParseInt(resp.Header.Get(HeaderAcceptNS), 10, 64)
	f.mu.Lock()
	f.leaderStable = stable
	f.leaderEpoch = epoch
	f.leaderCommitNS = commitNS
	f.leaderAcceptNS = acceptNS
	f.lastContact = time.Now()
	f.mu.Unlock()

	f.pend = append(f.pend, body...)
	return f.drain()
}

// verifyChunk checks a fetched chunk end-to-end before a byte of it is
// parsed: the leader must echo the requested offset (a duplicated or
// misrouted chunk fails here), the advertised next offset must match the
// body length (a truncated body fails here), and the body must carry the
// advertised CRC64 (a bit-flip fails here).
func (f *Follower) verifyChunk(h http.Header, from int64, body []byte) error {
	gotFrom, err := strconv.ParseInt(h.Get(HeaderFrom), 10, 64)
	if err != nil || gotFrom != from {
		return fmt.Errorf("replicate: requested offset %d, leader served %q — misaligned chunk", from, h.Get(HeaderFrom))
	}
	next, err := strconv.ParseInt(h.Get(HeaderNext), 10, 64)
	if err != nil || next != from+int64(len(body)) {
		return fmt.Errorf("replicate: chunk advertises [%d,%s) but carries %d bytes — torn transfer", from, h.Get(HeaderNext), len(body))
	}
	want, err := strconv.ParseUint(h.Get(HeaderCRC), 16, 64)
	if err != nil {
		return fmt.Errorf("replicate: unparseable chunk CRC %q", h.Get(HeaderCRC))
	}
	if got := journal.ChunkCRC(body); got != want {
		return fmt.Errorf("replicate: chunk CRC mismatch: got %016x, header %016x — corrupt transfer", got, want)
	}
	return nil
}

// drain parses the pending tail frame-by-frame, keeps every accept and
// applies every window it closes. A corrupt frame, a grammar violation or a
// transient fault rewinds the tail (state intact, re-fetch next poll); a
// replay divergence or a crash-class fault kills the follower.
func (f *Follower) drain() (applied int, err error) {
	done := 0 // bytes of pend, held by no open window, now in the follower's log
	n, err := journal.Scan(f.pend[f.parse:], func(typ byte, payload []byte, end int) error {
		wl, err := f.asm.Feed(typ, payload)
		if err != nil {
			return err
		}
		f.mu.Lock()
		f.shipped++
		f.mu.Unlock()
		if wl == nil && (typ != journal.TypeAccept || f.asm.InFlight()) {
			return nil // inside a window: it joins the log when the window closes
		}
		if wl != nil && wl.Committed() {
			if err := f.cfg.Faults.Hit("apply"); err != nil {
				if faults.IsCrash(err) {
					return f.kill(err)
				}
				return fmt.Errorf("apply: %w", err)
			}
			rep, err := f.w.ApplyWindow(wl)
			if err != nil {
				return f.kill(err)
			}
			applied++
			f.tip = *wl.Commit
			f.mu.Lock()
			cb := f.cfg.OnApply
			f.mu.Unlock()
			if cb != nil {
				cb(rep)
			}
		}
		// A closed window, or an accept between windows: durable replica state.
		_, _ = f.log.Write(f.pend[done : f.parse+end]) // a Log takes every byte
		f.log.Shippable(f.tip)
		done = f.parse + end
		return nil
	})
	f.asm.Detach() // the accepts and begin record it holds keep no fetched chunk alive
	if err != nil {
		f.rewind()
		if !errors.Is(err, ErrFollowerDead) {
			err = f.disconnect(fmt.Errorf("replicate: shipped chunk: %w", err))
		}
		return applied, err
	}
	f.pend, f.parse = f.pend[done:], f.parse+n-done
	return applied, nil
}

// CatchUp polls until the follower has applied everything the leader has
// committed, pausing between failed polls (firstReconnect, doubling up to
// maxReconnect). It returns once the high-water mark reaches the leader's
// stable watermark (as of the last successful poll) — or with the follower's
// fatal error, or ctx's.
func (f *Follower) CatchUp(ctx context.Context) error {
	wait := firstReconnect
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		_, err := f.Poll(ctx)
		if err != nil {
			if errors.Is(err, ErrFollowerDead) {
				return err
			}
			f.pause(ctx, wait)
			wait = min(2*wait, maxReconnect)
			continue
		}
		wait = firstReconnect
		if f.Lag().Bytes == 0 {
			return nil
		}
	}
}

// Run polls until ctx is done: continuously while behind, every Interval
// once caught up, pausing longer across consecutive failed polls as CatchUp
// does. It returns ctx.Err() on shutdown — a pause ends when ctx does — or
// the fatal error if the follower dies.
func (f *Follower) Run(ctx context.Context) error {
	wait := firstReconnect
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		applied, err := f.Poll(ctx)
		switch {
		case errors.Is(err, ErrFollowerDead):
			return err
		case err != nil:
			f.pause(ctx, wait)
			wait = min(2*wait, maxReconnect)
		case applied == 0 && f.Lag().Bytes == 0:
			wait = firstReconnect
			f.pause(ctx, f.cfg.Interval)
		default:
			wait = firstReconnect
		}
	}
}

// pause waits d, or until ctx is done; cfg.Sleep, when set, stands in for it.
func (f *Follower) pause(ctx context.Context, d time.Duration) {
	if f.cfg.Sleep != nil {
		f.cfg.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// disconnect counts a reconnect-worthy failure and passes the error through.
func (f *Follower) disconnect(err error) error {
	f.mu.Lock()
	f.reconnects++
	f.mu.Unlock()
	return err
}

// kill marks the follower dead and returns the wrapped fatal error.
func (f *Follower) kill(err error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fatal == nil {
		f.fatal = fmt.Errorf("%w: %w", ErrFollowerDead, err)
	}
	return f.fatal
}

func (f *Follower) dead() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fatal
}

// Lag is the follower's staleness relative to its last contact with the
// leader: how many epochs and stable log bytes it has yet to apply, and the
// wall-clock gap between the leader's stable tip and the follower's applied
// tip. Epoch lag saturates at zero — the leader's stable watermark can
// momentarily lead its epoch flip, so a caught-up follower never reports
// negative lag — and so do the wall-clock gaps.
type Lag struct {
	Epochs uint64 `json:"lag_epochs"`
	Bytes  int64  `json:"lag_bytes"`
	Epoch  uint64 `json:"epoch"`
	Leader uint64 `json:"leader_epoch"`
	// WallMS is how far, in wall-clock milliseconds, the follower's applied
	// tip trails the leader's stable tip (commit time minus commit time); 0
	// when caught up or when either side has no committed window yet.
	WallMS float64 `json:"lag_wall_ms"`
	// AcceptWallMS is the end-to-end freshness of the follower's served
	// state: from when its applied tip's change batch was accepted from the
	// stream to the leader's stable-tip commit (the freshest wall-clock the
	// follower has heard). A caught-up follower reports the tip's own
	// accept-to-commit span; a lagging one adds the replication gap. 0 when
	// the applied tip did not come from the ingest path (no accept time).
	AcceptWallMS float64 `json:"accept_wall_ms"`
}

// Lag snapshots the follower's staleness.
func (f *Follower) Lag() Lag {
	f.mu.Lock()
	leaderEpoch, leaderStable := f.leaderEpoch, f.leaderStable
	leaderCommitNS := f.leaderCommitNS
	f.mu.Unlock()
	lag := Lag{Epoch: f.w.Epoch(), Leader: leaderEpoch}
	if leaderEpoch > lag.Epoch {
		lag.Epochs = leaderEpoch - lag.Epoch
	}
	if hwm := f.HWM(); leaderStable > hwm {
		lag.Bytes = leaderStable - hwm
	}
	appliedCommitNS, appliedAcceptNS := f.log.StableTip()
	if leaderCommitNS > 0 && appliedCommitNS > 0 && leaderCommitNS > appliedCommitNS {
		lag.WallMS = float64(leaderCommitNS-appliedCommitNS) / 1e6
	}
	if leaderCommitNS > 0 && appliedAcceptNS > 0 && leaderCommitNS > appliedAcceptNS {
		lag.AcceptWallMS = float64(leaderCommitNS-appliedAcceptNS) / 1e6
	}
	return lag
}

// FollowerStats is the follower's replication counter snapshot.
type FollowerStats struct {
	Epoch           uint64    `json:"epoch"`
	LeaderEpoch     uint64    `json:"leader_epoch"`
	LagEpochs       uint64    `json:"lag_epochs"`
	LagBytes        int64     `json:"lag_bytes"`
	HWM             int64     `json:"hwm"`
	LeaderStable    int64     `json:"leader_stable"`
	ReplayedWindows int64     `json:"replayed_windows"`
	ShippedRecords  int64     `json:"shipped_records"`
	ReconnectCount  int64     `json:"reconnect_count"`
	LastContact     time.Time `json:"last_contact"`
	// LagWallMS / AcceptWallMS mirror Lag's wall-clock staleness; the
	// Leader*NS fields are the raw stable-tip timestamps they derive from.
	LagWallMS      float64 `json:"lag_wall_ms"`
	AcceptWallMS   float64 `json:"accept_wall_ms"`
	LeaderCommitNS int64   `json:"leader_commit_unix_ns"`
	LeaderAcceptNS int64   `json:"leader_accept_unix_ns"`
	Dead           string  `json:"dead,omitempty"`
}

// Stats snapshots the follower's counters.
func (f *Follower) Stats() FollowerStats {
	lag := f.Lag()
	f.mu.Lock()
	defer f.mu.Unlock()
	s := FollowerStats{
		Epoch:           lag.Epoch,
		LeaderEpoch:     lag.Leader,
		LagEpochs:       lag.Epochs,
		LagBytes:        lag.Bytes,
		HWM:             f.log.Len(),
		LeaderStable:    f.leaderStable,
		ReplayedWindows: f.w.Tally().Replicated,
		ShippedRecords:  f.shipped,
		ReconnectCount:  f.reconnects,
		LastContact:     f.lastContact,
		LagWallMS:       lag.WallMS,
		AcceptWallMS:    lag.AcceptWallMS,
		LeaderCommitNS:  f.leaderCommitNS,
		LeaderAcceptNS:  f.leaderAcceptNS,
	}
	if f.fatal != nil {
		s.Dead = f.fatal.Error()
	}
	return s
}
