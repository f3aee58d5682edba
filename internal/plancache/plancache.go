// Package plancache is an LRU cache of prepared query plans keyed by
// normalized SQL text plus the catalog version the plan was bound against.
// It sits on the serving hot path: a hit hands back a fully bound,
// immutable plan without touching the lexer or parser, so the steady-state
// cost of a repeated query shape is one mutex-guarded map probe.
//
// Keys are whitespace-normalized SQL bytes — runs of blanks outside string
// literals collapse to one space — so reformatting a query does not split
// its cache entry. The catalog version acts as the epoch-independent
// binding fingerprint: window commits that define no views keep the same
// version and keep their plans; defining a view (or loading a snapshot)
// bumps it, and stale entries are discarded lazily on their next probe.
package plancache

import (
	"sync"
)

// Stats is a point-in-time snapshot of one cache's counters.
type Stats struct {
	// Hits and Misses count Get probes by outcome; Evictions counts
	// entries dropped by LRU capacity pressure, Invalidations entries
	// dropped because the catalog version moved past them.
	Hits, Misses, Evictions, Invalidations uint64
	// Entries is the current population, Cap the configured capacity.
	Entries, Cap int
}

type entry[V any] struct {
	key        string
	version    uint64
	val        V
	prev, next *entry[V]
}

// Cache is a fixed-capacity LRU plan cache. All methods are safe for
// concurrent use. The zero value is not usable; call New.
type Cache[V any] struct {
	mu         sync.Mutex
	cap        int
	m          map[string]*entry[V]
	head, tail *entry[V] // doubly-linked LRU list; head is most recent

	hits, misses, evictions, invalidations uint64

	norm []byte // normalization scratch; guarded by mu
}

// New creates a cache holding at most capacity plans; a capacity below 1
// holds one.
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		capacity = 1
	}
	return &Cache[V]{cap: capacity, m: make(map[string]*entry[V], capacity)}
}

// normalize collapses runs of SQL whitespace outside string literals into
// single spaces and trims the ends, writing into the scratch buffer. The
// returned slice aliases c.norm and is only valid under c.mu.
func (c *Cache[V]) normalize(sql string) []byte {
	b := c.norm[:0]
	inStr := false
	pendingSpace := false
	for i := 0; i < len(sql); i++ {
		ch := sql[i]
		if !inStr && (ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r') {
			pendingSpace = len(b) > 0
			continue
		}
		if pendingSpace {
			b = append(b, ' ')
			pendingSpace = false
		}
		if ch == '\'' {
			inStr = !inStr
		}
		b = append(b, ch)
	}
	c.norm = b
	return b
}

func (c *Cache[V]) unlink(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache[V]) pushFront(e *entry[V]) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// Get returns the plan cached for sql at the given catalog version. A
// stored plan bound against a different version counts as a miss and is
// discarded (the caller is about to re-bind and Put the fresh plan).
func (c *Cache[V]) Get(sql string, version uint64) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := c.normalize(sql)
	e, ok := c.m[string(key)] // no-copy map probe
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	if e.version != version {
		c.invalidations++
		c.misses++
		delete(c.m, e.key)
		c.unlink(e)
		var zero V
		return zero, false
	}
	c.hits++
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
	return e.val, true
}

// Put stores the plan bound for sql at the given catalog version,
// evicting the least-recently-used entry if the cache is full.
func (c *Cache[V]) Put(sql string, version uint64, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := c.normalize(sql)
	if e, ok := c.m[string(key)]; ok {
		e.version = version
		e.val = val
		if c.head != e {
			c.unlink(e)
			c.pushFront(e)
		}
		return
	}
	if len(c.m) >= c.cap {
		lru := c.tail
		c.unlink(lru)
		delete(c.m, lru.key)
		c.evictions++
	}
	e := &entry[V]{key: string(key), version: version, val: val}
	c.m[e.key] = e
	c.pushFront(e)
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Entries:       len(c.m),
		Cap:           c.cap,
	}
}
