// Package faults is a seeded fault-injection layer for exercising the
// warehouse's crash-safety machinery. Code under test declares named
// injection points (step boundaries in the executors, spill I/O, the
// ingester's journal and batch points, replication fetch and apply) by
// calling Injector.Hit; tests arm the injector with trigger-point rules
// ("fail the 3rd hit of point X") or probability rules ("each hit of X fails
// with p=0.01") and the armed hits return — or panic with — a *Fault.
//
// Faults come in three flavours:
//
//   - plain failures (FailAt/FailTimes/SetProbability): an in-process error
//     the caller may retry, abort, or degrade around; these are marked
//     Transient, modelling recoverable conditions such as a source briefly
//     unreachable.
//   - crashes (CrashAt/PanicCrashAt): simulated process death. Callers that
//     recognise a crash-class fault (IsCrash) must stop immediately and
//     write nothing further — in particular no Abort record — so the
//     journal is left exactly as a killed process would leave it.
//   - panics (PanicAt/PanicCrashAt): the fault is raised as a panic instead
//     of returned, exercising the recover() guards in the DAG workers and
//     the morsel pool.
//
// A nil *Injector is inert: every method is safe to call and Hit returns
// nil, so production paths carry the hook at zero configuration cost.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// Fault is one injected failure.
type Fault struct {
	// Point is the injection point that fired.
	Point string
	// Hit is the 1-based count of the firing Hit call at that point.
	Hit int
	// Crash marks a crash-class fault: the process is considered dead and
	// the caller must not write anything further (no Abort record).
	Crash bool
	// Transient marks a retryable condition (plain failures are transient;
	// crashes are not).
	Transient bool
	// Panicked records that the fault was delivered by panicking.
	Panicked bool
}

// Error implements error.
func (f *Fault) Error() string {
	kind := "injected fault"
	switch {
	case f.Crash:
		kind = "injected crash"
	case f.Transient:
		kind = "injected transient fault"
	}
	if f.Panicked {
		kind += " (panic)"
	}
	return fmt.Sprintf("faults: %s at %s hit %d", kind, f.Point, f.Hit)
}

// AsFault unwraps err to the injected *Fault, if any.
func AsFault(err error) (*Fault, bool) {
	var f *Fault
	if errors.As(err, &f) {
		return f, true
	}
	return nil, false
}

// IsCrash reports whether err carries a crash-class fault.
func IsCrash(err error) bool {
	f, ok := AsFault(err)
	return ok && f.Crash
}

// IsTransient reports whether err carries a transient (retryable) fault.
func IsTransient(err error) bool {
	f, ok := AsFault(err)
	return ok && f.Transient
}

type ruleKind uint8

const (
	ruleFail ruleKind = iota
	ruleCrash
	rulePanic
	rulePanicCrash
)

type rule struct {
	kind ruleKind
	// nth fires the rule on exactly the nth hit; upTo fires it on every hit
	// ≤ upTo; prob fires it per hit with the given probability. Exactly one
	// is set per rule.
	nth  int
	upTo int
	prob float64
}

// Injector delivers seeded faults at named injection points. Safe for
// concurrent use (executors hit step boundaries from many workers).
type Injector struct {
	mu      sync.Mutex
	rng     *rand.Rand
	rules   map[string][]rule
	hits    map[string]int
	crashed bool
}

// New creates an injector whose probability rules draw from the given seed.
func New(seed int64) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		rules: make(map[string][]rule),
		hits:  make(map[string]int),
	}
}

func (i *Injector) add(point string, r rule) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rules[point] = append(i.rules[point], r)
}

// FailAt arms a transient failure on exactly the nth Hit of point.
func (i *Injector) FailAt(point string, nth int) { i.add(point, rule{kind: ruleFail, nth: nth}) }

// FailTimes arms transient failures on the first k Hits of point.
func (i *Injector) FailTimes(point string, k int) { i.add(point, rule{kind: ruleFail, upTo: k}) }

// CrashAt arms a crash-class fault on exactly the nth Hit of point.
func (i *Injector) CrashAt(point string, nth int) { i.add(point, rule{kind: ruleCrash, nth: nth}) }

// PanicAt arms a transient fault delivered by panic on the nth Hit of point.
func (i *Injector) PanicAt(point string, nth int) { i.add(point, rule{kind: rulePanic, nth: nth}) }

// PanicCrashAt arms a crash-class fault delivered by panic on the nth Hit
// of point: the panicking-worker analogue of CrashAt.
func (i *Injector) PanicCrashAt(point string, nth int) {
	i.add(point, rule{kind: rulePanicCrash, nth: nth})
}

// SetProbability arms a transient failure on each Hit of point with
// probability p, drawn from the injector's seeded source.
func (i *Injector) SetProbability(point string, p float64) {
	i.add(point, rule{kind: ruleFail, prob: p})
}

// Hits returns how many times point has been hit.
func (i *Injector) Hits(point string) int {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.hits[point]
}

// Crashed reports whether any crash-class fault has fired. Executors run
// steps concurrently, so the error that surfaces first in strategy order is
// not necessarily the crash; robust runners consult Crashed to classify a
// failed window.
func (i *Injector) Crashed() bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.crashed
}

// Hit declares one pass through the injection point. It returns a *Fault
// (or panics with one, for panic-flavoured rules) when an armed rule fires,
// nil otherwise. Calling Hit on a nil injector returns nil.
func (i *Injector) Hit(point string) error {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	i.hits[point]++
	n := i.hits[point]
	var fired *rule
	for ri := range i.rules[point] {
		r := &i.rules[point][ri]
		switch {
		case r.nth > 0 && r.nth == n:
			fired = r
		case r.upTo > 0 && n <= r.upTo:
			fired = r
		case r.prob > 0 && i.rng.Float64() < r.prob:
			fired = r
		}
		if fired != nil {
			break
		}
	}
	if fired == nil {
		i.mu.Unlock()
		return nil
	}
	f := &Fault{Point: point, Hit: n}
	switch fired.kind {
	case ruleCrash, rulePanicCrash:
		f.Crash = true
		i.crashed = true
	default:
		f.Transient = true
	}
	i.mu.Unlock()
	if fired.kind == rulePanic || fired.kind == rulePanicCrash {
		f.Panicked = true
		panic(f)
	}
	return f
}

// Writer wraps an io.Writer-shaped sink with an injection point: every
// Write first hits the point and fails (without writing) when a fault
// fires, and once any crash-class fault has fired anywhere on the injector
// the sink refuses all further writes — a journal behind a crashed process
// accepts nothing more.
type Writer struct {
	W     interface{ Write([]byte) (int, error) }
	Inj   *Injector
	Point string
}

// Write implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) {
	if w.Inj.Crashed() {
		return 0, &Fault{Point: w.Point, Hit: w.Inj.Hits(w.Point), Crash: true}
	}
	if err := w.Inj.Hit(w.Point); err != nil {
		return 0, err
	}
	return w.W.Write(p)
}
