// Package cowmap is the copy-on-write hash table under the warehouse's
// stored state: the rows of a storage.Table, the groups of a
// storage.AggTable and the value bag of a MIN/MAX delta.Accum.
//
// A Map is a power-of-two directory of buckets, each a short slice of
// {hash, key, value} entries. Clone is O(1): both handles keep the same
// directory and buckets and each takes a fresh owner token, so neither owns
// anything it can reach. A write through a handle first makes what it
// touches the handle's own — the directory (one pointer per bucket) on the
// handle's first write, then the one bucket the key lands in — and leaves
// everything else shared. What a window copies is therefore proportional to
// the buckets its batch touches, not to the table.
//
// A handle has one writer at a time. Readers of a handle need no lock while
// only other handles are written: a shared directory or bucket is never
// modified, it is replaced in the writer's private directory. Clone writes
// the source handle's token and so counts as a write to it, but readers
// never look at tokens.
package cowmap

import "hash/crc64"

// maxLoad is the mean number of entries per bucket at which the directory
// doubles; right after a doubling the mean is half of it.
const maxLoad = 16

// Hash is the hash every Map operation takes beside the key: the CRC-64/ECMA
// of the key's bytes, the value hash/crc64 gives. It is a checksum on
// purpose — a caller that fingerprints its entries (the state digest the
// stores keep, which package recovery folds) continues the CRC from the
// stored hash with Extend instead of reading the key again.
func Hash(key string) uint64 { return ^update(^uint64(0), key) }

// HashBytes is Hash of a key held as bytes.
func HashBytes(key []byte) uint64 { return ^updateBytes(^uint64(0), key) }

// Extend continues a CRC begun by Hash over further bytes:
// Extend(Hash(k), p) is the CRC-64/ECMA of k followed by p.
func Extend(h uint64, p []byte) uint64 {
	h = ^h
	for _, b := range p {
		h = slicing[0][byte(h)^b] ^ (h >> 8)
	}
	return ^h
}

// slicing holds the slicing-by-8 tables of the ECMA polynomial. hash/crc64
// has the same tables, but reaches them through a 2 KB table comparison on
// every call and only for inputs of 64 bytes and more; row keys are about
// that long, and hashing one is on the path of every stored-row operation.
var slicing = func() (t [8]crc64.Table) {
	t[0] = *crc64.MakeTable(crc64.ECMA)
	for i := range t[0] {
		crc := t[0][i]
		for j := 1; j < 8; j++ {
			crc = t[0][crc&0xff] ^ (crc >> 8)
			t[j][i] = crc
		}
	}
	return t
}()

// update is the CRC's inner loop over a string, eight bytes at a step.
func update(crc uint64, p string) uint64 {
	for len(p) >= 8 {
		crc ^= uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
			uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
		crc = slicing[7][crc&0xff] ^ slicing[6][(crc>>8)&0xff] ^
			slicing[5][(crc>>16)&0xff] ^ slicing[4][(crc>>24)&0xff] ^
			slicing[3][(crc>>32)&0xff] ^ slicing[2][(crc>>40)&0xff] ^
			slicing[1][(crc>>48)&0xff] ^ slicing[0][crc>>56]
		p = p[8:]
	}
	for i := 0; i < len(p); i++ {
		crc = slicing[0][byte(crc)^p[i]] ^ (crc >> 8)
	}
	return crc
}

// updateBytes is update over bytes. It is written out, not shared through a
// type parameter: a call into a generic function that is not inlined makes
// its arguments escape, and a caller's key buffer would move to the heap.
func updateBytes(crc uint64, p []byte) uint64 {
	for len(p) >= 8 {
		crc ^= uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
			uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
		crc = slicing[7][crc&0xff] ^ slicing[6][(crc>>8)&0xff] ^
			slicing[5][(crc>>16)&0xff] ^ slicing[4][(crc>>24)&0xff] ^
			slicing[3][(crc>>32)&0xff] ^ slicing[2][(crc>>40)&0xff] ^
			slicing[1][(crc>>48)&0xff] ^ slicing[0][crc>>56]
		p = p[8:]
	}
	for i := 0; i < len(p); i++ {
		crc = slicing[0][byte(crc)^p[i]] ^ (crc >> 8)
	}
	return crc
}

// Token identifies what a handle may modify in place. Tokens are compared,
// never dereferenced; a Map that was never cloned has the nil token.
type Token *token

// token has a size so that distinct allocations have distinct addresses.
type token struct{ _ byte }

type entry[V any] struct {
	hash uint64
	key  string
	val  V
}

type bucket[V any] struct {
	owner   Token
	entries []entry[V]
}

// Map is a hash table from string keys to V with copy-on-write clones. The
// zero Map is empty and ready for use. A Map must not be copied by
// assignment after first use; use Clone.
type Map[V any] struct {
	dir      []*bucket[V] // length 0 or a power of two; nil where a bucket is empty
	dirOwner Token        // dir is this handle's own iff dirOwner == owner
	owner    Token
	n        int
	room     int // capacity a bucket starts with when its first entry arrives; set by Grow
}

// Len returns the number of entries.
func (m *Map[V]) Len() int { return m.n }

// Owner returns the handle's current token. Values that hold mutable state
// behind a pointer record it when they are made: such a value may be
// modified in place only while its token is still the handle's, since Clone
// leaves every older value shared.
func (m *Map[V]) Owner() Token { return m.owner }

// Clone returns a second handle on the same entries. Both handles take new
// tokens: from here on, either one copies what it writes to.
func (m *Map[V]) Clone() Map[V] {
	c := *m
	m.owner, c.owner = new(token), new(token)
	return c
}

// Clear empties this handle, abandoning shared buckets to the other handles.
func (m *Map[V]) Clear() {
	m.dir, m.dirOwner, m.n, m.room = nil, m.owner, 0, 0
}

// Get returns the value stored under key.
func (m *Map[V]) Get(hash uint64, key string) (V, bool) { return get(m, hash, key) }

// GetBytes is Get for a key held as bytes, HashBytes its hash: a reader
// that encodes keys into a buffer it reuses looks them up without
// allocating.
func (m *Map[V]) GetBytes(hash uint64, key []byte) (V, bool) { return get(m, hash, key) }

func get[V any, K string | []byte](m *Map[V], hash uint64, key K) (V, bool) {
	if len(m.dir) != 0 {
		if b := m.dir[hash&uint64(len(m.dir)-1)]; b != nil {
			for i := range b.entries {
				if e := &b.entries[i]; e.hash == hash && e.key == string(key) {
					return e.val, true
				}
			}
		}
	}
	var zero V
	return zero, false
}

// Ref returns a pointer to the value stored under key, inserting the zero
// value first if the key is absent (existed reports which). The bucket
// becomes the handle's own, so the caller may write through the pointer —
// until the handle's next Ref, Delete, Grow, Clear or Clone.
func (m *Map[V]) Ref(hash uint64, key string) (v *V, existed bool) { return ref(m, hash, key) }

// RefBytes is Ref for a key held as bytes; the key is copied into a string
// only when it is inserted.
func (m *Map[V]) RefBytes(hash uint64, key []byte) (v *V, existed bool) { return ref(m, hash, key) }

func ref[V any, K string | []byte](m *Map[V], hash uint64, key K) (v *V, existed bool) {
	if len(m.dir) == 0 {
		m.dir, m.dirOwner = make([]*bucket[V], 1), m.owner
	}
	i := hash & uint64(len(m.dir)-1)
	if b := m.dir[i]; b != nil {
		for j := range b.entries {
			if e := &b.entries[j]; e.hash == hash && e.key == string(key) {
				return &m.own(i, 0).entries[j].val, true
			}
		}
	}
	if m.n >= maxLoad*len(m.dir) {
		m.resize(2 * len(m.dir))
		i = hash & uint64(len(m.dir)-1)
	}
	b := m.own(i, 1)
	if n := len(b.entries); n == cap(b.entries) {
		b.entries = withRoom(b.entries, max(2, n/2))
	}
	b.entries = append(b.entries, entry[V]{hash: hash, key: string(key)})
	m.n++
	return &b.entries[len(b.entries)-1].val, false
}

// Delete removes key and returns the value it held, if it was present.
func (m *Map[V]) Delete(hash uint64, key string) (v V, existed bool) { return del(m, hash, key) }

// DeleteBytes is Delete for a key held as bytes.
func (m *Map[V]) DeleteBytes(hash uint64, key []byte) (v V, existed bool) { return del(m, hash, key) }

func del[V any, K string | []byte](m *Map[V], hash uint64, key K) (v V, existed bool) {
	if len(m.dir) == 0 {
		return v, false
	}
	i := hash & uint64(len(m.dir)-1)
	b := m.dir[i]
	if b == nil {
		return v, false
	}
	for j := range b.entries {
		if e := &b.entries[j]; e.hash == hash && e.key == string(key) {
			b = m.own(i, 0)
			v = b.entries[j].val
			last := len(b.entries) - 1
			b.entries[j] = b.entries[last]
			b.entries[last] = entry[V]{} // drop the key and value references
			b.entries = b.entries[:last]
			m.n--
			return v, true
		}
	}
	return v, false
}

// Scan calls fn for every entry until fn returns false. The order is that
// of the directory and stable while the handle is not written.
func (m *Map[V]) Scan(fn func(hash uint64, key string, v V) bool) {
	for _, b := range m.dir {
		if b == nil {
			continue
		}
		for i := range b.entries {
			if e := &b.entries[i]; !fn(e.hash, e.key, e.val) {
				return
			}
		}
	}
}

// Grow sizes the directory for n more entries at once, so that a load of
// known size neither doubles the directory on the way nor regrows its
// buckets: each bucket made from here on starts with room for its expected
// share.
func (m *Map[V]) Grow(n int) {
	want := m.n + n
	size := max(len(m.dir), 1)
	for want > maxLoad*size {
		size *= 2
	}
	if size != len(m.dir) {
		m.resize(size)
	}
	m.room = want/size + 2
}

// own makes the directory and bucket i the handle's own and returns the
// bucket, copying each only if it is still shared. A copied bucket gets
// room for the given number of further entries and no more: the copy is
// made again by every window that touches the bucket, and what a table
// holds resident is mostly its buckets.
func (m *Map[V]) own(i uint64, room int) *bucket[V] {
	if m.dirOwner != m.owner {
		m.dir, m.dirOwner = append([]*bucket[V](nil), m.dir...), m.owner
	}
	b := m.dir[i]
	switch {
	case b == nil:
		b = &bucket[V]{owner: m.owner}
		if m.room > 0 {
			b.entries = make([]entry[V], 0, m.room)
		}
		m.dir[i] = b
	case b.owner != m.owner:
		b = &bucket[V]{owner: m.owner, entries: withRoom(b.entries, room)}
		m.dir[i] = b
	}
	return b
}

// withRoom copies entries into a new array with the given spare capacity.
func withRoom[V any](entries []entry[V], room int) []entry[V] {
	out := make([]entry[V], len(entries), len(entries)+room)
	copy(out, entries)
	return out
}

// resize rebuilds the directory at the given power-of-two size into buckets
// of the handle's own, each allocated on its own so that a bucket replaced
// later frees its memory without waiting for its neighbours.
func (m *Map[V]) resize(size int) {
	counts := make([]int32, size)
	mask := uint64(size - 1)
	for _, b := range m.dir {
		if b != nil {
			for i := range b.entries {
				counts[b.entries[i].hash&mask]++
			}
		}
	}
	dir := make([]*bucket[V], size)
	for i, c := range counts {
		if c > 0 {
			dir[i] = &bucket[V]{owner: m.owner, entries: make([]entry[V], 0, int(c)+max(2, int(c)/2))}
		}
	}
	for _, b := range m.dir {
		if b != nil {
			for i := range b.entries {
				nb := dir[b.entries[i].hash&mask]
				nb.entries = append(nb.entries, b.entries[i])
			}
		}
	}
	m.dir, m.dirOwner = dir, m.owner
}
