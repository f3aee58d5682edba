// Package journaltest holds the journal sink that stands in for a disk in
// the tests and benchmarks of the window journal: it knows, at every moment,
// which of the bytes written to it a flush has made durable, and so what a
// power loss at that moment would leave.
package journaltest

import (
	"errors"
	"os"
	"sync"
)

// Moment is what the disk held at one point in time: Written bytes handed to
// it, the first Durable of them flushed.
type Moment struct{ Durable, Written int }

// Disk is an in-memory journal file for a journal.Writer. It is safe for the
// concurrent Write and Sync calls the writer makes, records a Moment after
// every Write and every completed Sync, and returns the image a power loss
// would leave at any of them.
type Disk struct {
	// BeforeSync, when set, runs at the start of the nth Sync (from 0),
	// outside the disk's lock and before the Sync takes effect. A test holds
	// a flush open by blocking in it, a benchmark gives the disk a latency by
	// sleeping in it, and an error it returns fails the Sync, which then
	// flushes nothing. Set it before the disk is written to.
	BeforeSync func(nth int) error

	mu      sync.Mutex
	buf     []byte
	started int // Sync calls begun
	syncs   int // Sync calls that returned nil
	moments []Moment
}

// Hold sets BeforeSync so that the nth Sync (from 0) does not return until
// release is called, and then returns result; every other Sync succeeds at
// once. release may be called more than once.
func (d *Disk) Hold(nth int, result error) (release func()) {
	gate := make(chan struct{})
	d.BeforeSync = func(n int) error {
		if n != nth {
			return nil
		}
		<-gate
		return result
	}
	return sync.OnceFunc(func() { close(gate) })
}

func (d *Disk) durable() int {
	if len(d.moments) == 0 {
		return 0
	}
	return d.moments[len(d.moments)-1].Durable
}

// Write appends p.
func (d *Disk) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.buf = append(d.buf, p...)
	d.moments = append(d.moments, Moment{d.durable(), len(d.buf)})
	return len(p), nil
}

// Sync flushes, as fsync does, the bytes written before it was called: what
// is written while it runs waits for the next one.
func (d *Disk) Sync() error {
	d.mu.Lock()
	n, nth := len(d.buf), d.started
	d.started++
	d.mu.Unlock()
	if d.BeforeSync != nil {
		if err := d.BeforeSync(nth); err != nil {
			return err
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncs++
	d.moments = append(d.moments, Moment{max(n, d.durable()), len(d.buf)})
	return nil
}

// Bytes returns a copy of everything written.
func (d *Disk) Bytes() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]byte(nil), d.buf...)
}

// Now returns the disk's current moment.
func (d *Disk) Now() Moment {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Moment{d.durable(), len(d.buf)}
}

// Syncs returns how many Sync calls have completed.
func (d *Disk) Syncs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncs
}

// Moments returns the disk's history: one moment after each Write and each
// completed Sync, in the order they happened.
func (d *Disk) Moments() []Moment {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Moment(nil), d.moments...)
}

// PowerLoss returns what the disk holds after losing power at moment m: the
// bytes flushed by then, and the first tornBytes of those written and not
// flushed (all of them when there are fewer).
func (d *Disk) PowerLoss(m Moment, tornBytes int) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]byte(nil), d.buf[:min(m.Durable+tornBytes, m.Written)]...)
}

// TearTail appends the start of a frame to the record log at path — a header
// that promises 64 payload bytes and three of them — which is what a process
// killed, or a machine that lost power, inside an append leaves behind.
func TearTail(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write([]byte{1, 64, 't', 'o', 'r'})
	return errors.Join(err, f.Close())
}
