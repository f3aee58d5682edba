package replicate

// Torn-stream tests for the shipping protocol: a proxy between follower and
// leader corrupts exactly one response — truncating the chunk body,
// replaying a duplicated (stale-offset) chunk, or flipping a bit inside a
// record — and the follower must reject the chunk with its state intact,
// count a reconnect, and converge once the stream heals. Mirrors the
// snapshot reader's stage-then-validate tests: nothing corrupt is ever
// applied, because nothing is applied before it verifies.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	warehouse "repro"
	"repro/internal/check"
	"repro/internal/journal"
)

// tamper rewrites one /replicate/log response. It gets the recorded clean
// response and mutates it in place.
type tamper func(h http.Header, body []byte) []byte

// tamperProxy forwards to the leader's handler, applying t to the first
// log response after arm() is called.
type tamperProxy struct {
	inner http.Handler
	t     tamper
	armed atomic.Bool
	fired atomic.Bool
}

func (p *tamperProxy) arm() { p.armed.Store(true); p.fired.Store(false) }

func (p *tamperProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	p.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if r.URL.Path == "/replicate/log" && rec.Code == http.StatusOK &&
		p.armed.Load() && p.fired.CompareAndSwap(false, true) {
		p.armed.Store(false)
		body = p.t(rec.Header(), body)
	}
	for k, vs := range rec.Header() {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(rec.Code)
	_, _ = w.Write(body)
}

// runTornTrial ships two windows cleanly, arms the tamper, runs a third
// window, and requires: the armed fetch fails without touching follower
// state — its log may gain the records in front of a corrupt one, which
// verified, and nothing else — a reconnect is counted, and the follower then
// converges.
func runTornTrial(t *testing.T, name string, tm tamper) {
	t.Run(name, func(t *testing.T) {
		const seed = 7500
		leader := NewLeader(check.Build(t, seed))
		proxy := &tamperProxy{inner: leader.Handler(), t: tm}
		srv := httptest.NewServer(proxy)
		defer srv.Close()
		f := NewFollower(check.Build(t, seed), FollowerConfig{
			Leader: srv.URL,
			Client: srv.Client(),
			Sleep:  func(time.Duration) {},
		})
		rng := rand.New(rand.NewSource(seed * 3))
		ctx := context.Background()

		for i := 0; i < 2; i++ {
			check.Stage(t, leader.Warehouse(), rng)
			if _, err := leader.RunWindow(warehouse.WindowOptions{Mode: warehouse.ModeDAG}); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.CatchUp(ctx); err != nil {
			t.Fatal(err)
		}
		pre := check.Capture(f.Warehouse())
		preEpoch := f.Warehouse().Epoch()
		preHWM := f.HWM()

		check.Stage(t, leader.Warehouse(), rng)
		if _, err := leader.RunWindow(warehouse.WindowOptions{Mode: warehouse.ModeDAG}); err != nil {
			t.Fatal(err)
		}
		proxy.arm()

		// The tampered fetch must fail and must not move the follower.
		if _, err := f.Poll(ctx); err == nil {
			t.Fatal("tampered chunk was accepted")
		}
		if !proxy.fired.Load() {
			t.Fatal("tamper never fired")
		}
		if got := f.Warehouse().Epoch(); got != preEpoch {
			t.Fatalf("tampered chunk flipped the epoch: %d -> %d", preEpoch, got)
		}
		held, _, _ := f.Log().Chunk(0, 0)
		shipped, _, _ := leader.Log().Chunk(0, 0)
		if f.HWM() < preHWM || !bytes.HasPrefix(shipped, held) {
			t.Fatalf("tampered chunk took the HWM from %d to %d, over bytes the leader did not ship", preHWM, f.HWM())
		}
		if check.Diff(pre, check.Capture(f.Warehouse())) != nil {
			t.Fatal("tampered chunk mutated follower state")
		}
		if st := f.Stats(); st.ReconnectCount == 0 {
			t.Fatal("rejected chunk not counted as a reconnect")
		}

		// The stream is clean again: the follower re-fetches and converges.
		if err := f.CatchUp(ctx); err != nil {
			t.Fatal(err)
		}
		if check.Diff(check.Capture(leader.Warehouse()), check.Capture(f.Warehouse())) != nil {
			t.Fatal("follower did not converge after re-fetch")
		}
		if st := f.Stats(); st.ReplayedWindows != 3 || st.Dead != "" {
			t.Fatalf("stats after recovery: %+v", st)
		}
	})
}

func TestTornStream(t *testing.T) {
	runTornTrial(t, "truncated-chunk", func(h http.Header, body []byte) []byte {
		// Cut the body without fixing the headers: X-Log-Next no longer
		// matches the byte count the follower receives.
		if len(body) < 2 {
			return body
		}
		return body[:len(body)/2]
	})
	runTornTrial(t, "truncated-chunk-consistent-headers", func(h http.Header, body []byte) []byte {
		// A smarter failure: the transfer is cut AND the length headers are
		// recomputed to match, so only the CRC can catch it.
		if len(body) < 2 {
			return body
		}
		body = body[:len(body)/2]
		from, _ := strconv.ParseInt(h.Get(HeaderFrom), 10, 64)
		h.Set(HeaderNext, strconv.FormatInt(from+int64(len(body)), 10))
		return body
	})
	runTornTrial(t, "duplicated-chunk", func(h http.Header, body []byte) []byte {
		// Replay from offset 0: a stale duplicated chunk. Headers are made
		// self-consistent, so only the offset echo can catch it.
		h.Set(HeaderFrom, "0")
		h.Set(HeaderNext, strconv.FormatInt(int64(len(body)), 10))
		return body
	})
	runTornTrial(t, "bit-flipped-record", func(h http.Header, body []byte) []byte {
		// Flip one bit mid-body and recompute the chunk CRC over the flipped
		// bytes: the transfer-level check passes, and only the per-record
		// frame CRC catches it during parsing.
		if len(body) == 0 {
			return body
		}
		body[len(body)/2] ^= 0x10
		h.Set(HeaderCRC, fmt.Sprintf("%016x", journal.ChunkCRC(body)))
		return body
	})
}
