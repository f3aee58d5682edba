package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// schedule is an open-loop timetable: request k is due at start + k·every,
// whatever happened to the requests before it.
type schedule struct {
	start time.Time
	every time.Duration
}

func (s schedule) due(k int) time.Time { return s.start.Add(time.Duration(k) * s.every) }

// await sleeps until request k is due and returns its due time and how late
// the generator is with it. Latency is counted from the due time, so a stall
// in the system charges every request it delayed, not just the one in flight.
func (s schedule) await(k int) (due time.Time, late time.Duration) {
	due = s.due(k)
	if wait := time.Until(due); wait > 0 {
		time.Sleep(wait)
	}
	if late = time.Since(due); late < 0 {
		late = 0
	}
	return due, late
}

// queryLatency is what the system made a request wait: from its due time to
// its reply, less the generator's own lateness. The request could have gone
// out when it was due, or when the reply before it came back if that was
// later; from then until it was sent is the generator waking up late — most
// of a millisecond on a virtual machine, more than the query takes — and is
// reported as the generator's lag, not charged to the system.
func queryLatency(due, prevEnd, sent, end time.Time) time.Duration {
	free := due
	if prevEnd.After(due) {
		free = prevEnd
	}
	return end.Sub(due) - sent.Sub(free)
}

// queryRec is one answered (or failed) query.
type queryRec struct {
	kind       int
	due, end   time.Time
	latencyUS  float64 // due → response rows decoded, less the generator's own lateness
	waitUS     float64 // server: admission queue
	execUS     float64 // server: evaluation on the pinned epoch
	overheadUS float64 // send → response, minus wait and exec
	ok         bool
}

// queryStream is the dashboard user: one keep-alive connection issuing the
// workload's query mix at a fixed rate over the server's HTTP surface.
type queryStream struct {
	base   string
	kinds  []queryKind
	rate   float64
	rng    *rand.Rand
	client *http.Client
	tr     *tracer

	recs      []queryRec
	lagMaxMS  float64
	lastEpoch uint64
	backwards int // responses from an epoch older than one already seen
	problems  []string
}

func newQueryStream(base string, kinds []queryKind, rate float64, seed int64, tr *tracer) *queryStream {
	return &queryStream{
		base: base, kinds: kinds, rate: rate, tr: tr,
		rng: rand.New(rand.NewSource(seed ^ 0x5eed)),
		client: &http.Client{
			Timeout:   2 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		},
	}
}

// pick draws a query kind by share.
func (q *queryStream) pick() int {
	x := q.rng.Float64()
	for i, k := range q.kinds {
		if x < k.share {
			return i
		}
		x -= k.share
	}
	return len(q.kinds) - 1
}

type queryReply struct {
	Epoch  uint64  `json:"epoch"`
	Rows   [][]any `json:"rows"`
	WaitUS int64   `json:"wait_us"`
	ExecUS int64   `json:"exec_us"`
}

func (q *queryStream) run(ctx context.Context) {
	defer q.client.CloseIdleConnections()
	sched := schedule{start: time.Now(), every: time.Duration(float64(time.Second) / q.rate)}
	var prevEnd time.Time
	for k := 0; ctx.Err() == nil; k++ {
		due, late := sched.await(k)
		if ctx.Err() != nil {
			return
		}
		// With one connection a slow reply delays the next request; that
		// wait is the system's and is charged to latency. The generator
		// itself is late only when the connection was free at the due time.
		if l := ms(late); l > q.lagMaxMS && prevEnd.Before(due) {
			q.lagMaxMS = l
		}
		kind := q.pick()
		sql := q.kinds[kind].sql
		if strings.Contains(sql, "%d") {
			sql = fmt.Sprintf(sql, 1_000_000_000+k)
		}
		rec := queryRec{kind: kind, due: due}
		sent := time.Now()
		reply, err := q.get(ctx, sql)
		rec.end = time.Now()
		if ctx.Err() != nil {
			return // cut off by the end of the run, not by the system
		}
		rec.latencyUS = us(queryLatency(due, prevEnd, sent, rec.end))
		if err != nil {
			if len(q.problems) < 5 {
				q.problems = append(q.problems, err.Error())
			}
		} else {
			rec.ok = true
			rec.waitUS, rec.execUS = float64(reply.WaitUS), float64(reply.ExecUS)
			rec.overheadUS = us(rec.end.Sub(sent)) - rec.waitUS - rec.execUS
			if reply.Epoch < q.lastEpoch {
				q.backwards++
			}
			q.lastEpoch = reply.Epoch
		}
		q.recs = append(q.recs, rec)
		prevEnd = rec.end
		if q.tr != nil {
			id := q.tr.add(0, "http.query", k, sent, rec.end, map[string]any{"kind": q.kinds[kind].name, "ok": rec.ok})
			// The server reports how long the query waited and ran; place
			// those inside the request so self time is the HTTP overhead.
			w0 := sent.Add(time.Duration(rec.overheadUS/2) * time.Microsecond)
			w1 := w0.Add(time.Duration(rec.waitUS) * time.Microsecond)
			q.tr.add(id, "serve.wait", k, w0, w1, nil)
			q.tr.add(id, "serve.exec", k, w1, w1.Add(time.Duration(rec.execUS)*time.Microsecond), nil)
		}
	}
}

func (q *queryStream) get(ctx context.Context, sql string) (queryReply, error) {
	var out queryReply
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, q.base+"/query?q="+url.QueryEscape(sql), nil)
	if err != nil {
		return out, err
	}
	resp, err := q.client.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		return out, fmt.Errorf("query %q: HTTP %d: %s", sql, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("query %q: decoding: %w", sql, err)
	}
	return out, nil
}
