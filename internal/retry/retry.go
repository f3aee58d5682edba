// Package retry is the shared backoff helper behind every retry loop in the
// warehouse: the replication follower's reconnect loop, the recovery layer's
// transient-window retries, and the continuous ingester's fault handling.
// Each of those started as a hand-rolled sleep-and-double loop; this package
// gives them one tested implementation with jitter (so synchronized retriers
// de-correlate) and context cancellation (so a draining process never sits
// out a backoff).
package retry

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Policy shapes a retry schedule: exponential backoff from Base by Factor,
// capped at Max, with ±Jitter randomization. The zero value is a usable
// default (1ms base, factor 2, uncapped, no jitter).
type Policy struct {
	// Attempts is the total number of tries Do makes; values below 1 mean 1.
	Attempts int
	// Base is the delay before the first retry; <= 0 means 1ms.
	Base time.Duration
	// Factor multiplies the delay after each retry; values < 1 mean 2.
	Factor float64
	// Max caps the (pre-jitter) delay; 0 means uncapped.
	Max time.Duration
	// Jitter randomizes each delay by the fraction j: a delay d becomes a
	// uniform draw from [d(1-j), d(1+j)]. Values are clamped to [0, 1].
	// Jittered retriers that fail together do not retry together.
	Jitter float64
	// Sleep replaces the context-aware sleep between retries (tests); nil
	// sleeps for real, waking early if ctx is cancelled.
	Sleep func(time.Duration)
	// Rand supplies jitter draws in [0,1) (tests); nil uses a package-level
	// seeded source.
	Rand func() float64
}

func (p Policy) withDefaults() Policy {
	if p.Attempts < 1 {
		p.Attempts = 1
	}
	if p.Base <= 0 {
		p.Base = time.Millisecond
	}
	if p.Factor < 1 {
		p.Factor = 2
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	if p.Rand == nil {
		p.Rand = defaultRand
	}
	return p
}

var (
	randMu  sync.Mutex
	randSrc = rand.New(rand.NewSource(time.Now().UnixNano()))
)

func defaultRand() float64 {
	randMu.Lock()
	defer randMu.Unlock()
	return randSrc.Float64()
}

// Delay returns the jittered delay before retry number `retry` (0-based: the
// delay between the first failure and the second attempt is Delay(0)).
func (p Policy) Delay(retry int) time.Duration {
	p = p.withDefaults()
	d := float64(p.Base)
	for i := 0; i < retry; i++ {
		d *= p.Factor
		if p.Max > 0 && d >= float64(p.Max) {
			d = float64(p.Max)
			break
		}
	}
	if p.Max > 0 && d > float64(p.Max) {
		d = float64(p.Max)
	}
	if p.Jitter > 0 {
		d *= 1 - p.Jitter + 2*p.Jitter*p.Rand()
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// Backoff is the stateful form of a Policy's schedule, for loops that manage
// their own retry decision (the follower's poll loop): Next returns the
// successive jittered delays and Reset rewinds to the base after a success.
type Backoff struct {
	Policy Policy
	retry  int
}

// Next returns the next delay in the schedule and advances it.
func (b *Backoff) Next() time.Duration {
	d := b.Policy.Delay(b.retry)
	b.retry++
	return d
}

// Reset rewinds the schedule to its base delay.
func (b *Backoff) Reset() { b.retry = 0 }

// Do runs op up to p.Attempts times, sleeping the policy's jittered backoff
// between tries. A nil error returns immediately. A failed attempt retries
// only while retryable(err) is true (nil retryable retries everything) and
// attempts remain; the last error is returned otherwise. A cancelled ctx
// stops the schedule mid-sleep and returns ctx's error (nil ctx never
// cancels). op receives the 1-based attempt number.
func Do(ctx context.Context, p Policy, op func(attempt int) error, retryable func(error) bool) error {
	p = p.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	var err error
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err = op(attempt); err == nil {
			return nil
		}
		if attempt >= p.Attempts || (retryable != nil && !retryable(err)) {
			return err
		}
		if serr := sleep(ctx, p, p.Delay(attempt-1)); serr != nil {
			return serr
		}
	}
}

// sleep waits d, honoring the policy's Sleep hook and ctx cancellation.
func sleep(ctx context.Context, p Policy, d time.Duration) error {
	if p.Sleep != nil {
		p.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
