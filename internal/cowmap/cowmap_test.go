package cowmap

import (
	"fmt"
	"hash/crc64"
	"math/rand"
	"testing"
)

// TestHashIsCRC64ECMA: Hash and Extend give exactly hash/crc64's values —
// state digests recorded in journals and by followers are built from them.
func TestHashIsCRC64ECMA(t *testing.T) {
	tab := crc64.MakeTable(crc64.ECMA)
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 200; n++ {
		key := make([]byte, n)
		rng.Read(key)
		more := make([]byte, rng.Intn(12))
		rng.Read(more)
		if got, want := Hash(string(key)), crc64.Update(0, tab, key); got != want {
			t.Fatalf("Hash of %d bytes = %#x, crc64 gives %#x", n, got, want)
		}
		if got, want := Extend(Hash(string(key)), more), crc64.Update(0, tab, append(key, more...)); got != want {
			t.Fatalf("Extend over %d+%d bytes = %#x, crc64 gives %#x", n, len(more), got, want)
		}
	}
}

func contents(m *Map[int]) map[string]int {
	out := make(map[string]int)
	m.Scan(func(hash uint64, key string, v int) bool {
		if hash != Hash(key) {
			panic("scan hands out a hash that is not the key's")
		}
		out[key] = v
		return true
	})
	return out
}

func sameContents(t *testing.T, what string, m *Map[int], want map[string]int) {
	t.Helper()
	got := contents(m)
	if len(got) != len(want) || m.Len() != len(want) {
		t.Fatalf("%s: %d entries scanned, Len %d, want %d", what, len(got), m.Len(), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: %q = %d, want %d", what, k, got[k], v)
		}
		if g, ok := m.Get(Hash(k), k); !ok || g != v {
			t.Fatalf("%s: Get(%q) = %d, %v, want %d", what, k, g, ok, v)
		}
		if g, ok := m.GetBytes(HashBytes([]byte(k)), []byte(k)); !ok || g != v {
			t.Fatalf("%s: GetBytes(%q) = %d, %v, want %d", what, k, g, ok, v)
		}
	}
}

// TestCloneDivergence drives random writes through a family of handles
// cloned from one another, each against its own model map: no write through
// one handle ever shows through another, across directory doublings,
// deletes, Grow and Clear — through the string-keyed methods and the
// byte-keyed ones alike.
func TestCloneDivergence(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		handles := []*Map[int]{new(Map[int])}
		models := []map[string]int{{}}
		for op := 0; op < 3000; op++ {
			i := rng.Intn(len(handles))
			m, model := handles[i], models[i]
			key := fmt.Sprint("k", rng.Intn(400))
			switch r := rng.Intn(100); {
			case r < 3 && len(handles) < 6:
				c := m.Clone()
				cm := make(map[string]int, len(model))
				for k, v := range model {
					cm[k] = v
				}
				handles, models = append(handles, &c), append(models, cm)
			case r < 4:
				m.Clear()
				models[i] = map[string]int{}
			case r < 6:
				m.Grow(rng.Intn(300))
			case r < 40:
				want, had := model[key]
				del := m.Delete
				if op%2 == 0 {
					del = func(hash uint64, key string) (int, bool) { return m.DeleteBytes(hash, []byte(key)) }
				}
				if got, existed := del(Hash(key), key); existed != had || got != want {
					t.Fatalf("seed %d: Delete(%q) = %d, %v, the model holds %d, %v", seed, key, got, existed, want, had)
				}
				delete(model, key)
			default:
				ref := m.Ref
				if op%2 == 0 {
					ref = func(hash uint64, key string) (*int, bool) { return m.RefBytes(hash, []byte(key)) }
				}
				v, existed := ref(Hash(key), key)
				if _, had := model[key]; had != existed {
					t.Fatalf("seed %d: Ref(%q) existed=%v, model says %v", seed, key, existed, had)
				}
				*v += op
				model[key] += op
			}
		}
		for i := range handles {
			sameContents(t, fmt.Sprintf("seed %d handle %d", seed, i), handles[i], models[i])
		}
	}
}

// TestWriteCopiesOnlyItsBucket: after a clone, one write through the clone
// replaces one bucket of its directory and shares every other with the
// original, whose own directory is untouched.
func TestWriteCopiesOnlyItsBucket(t *testing.T) {
	var m Map[int]
	for i := 0; i < 5000; i++ {
		k := fmt.Sprint(i)
		v, _ := m.Ref(Hash(k), k)
		*v = i
	}
	before := append([]*bucket[int](nil), m.dir...)
	c := m.Clone()
	v, _ := c.Ref(Hash("17"), "17")
	*v = -1
	differ := 0
	for i := range c.dir {
		if c.dir[i] != m.dir[i] {
			differ++
		}
		if m.dir[i] != before[i] {
			t.Fatalf("bucket %d of the original was replaced by a write through the clone", i)
		}
	}
	if differ != 1 {
		t.Fatalf("one write through a clone replaced %d of %d buckets, want 1", differ, len(c.dir))
	}
	if got, _ := m.Get(Hash("17"), "17"); got != 17 {
		t.Fatalf("the original reads %d under the written key, want 17", got)
	}
}

// TestBucketsStayShort: row-like keys spread over the directory: no bucket
// is far above the mean the directory is sized for.
func TestBucketsStayShort(t *testing.T) {
	var m Map[int]
	for i := 0; i < 50_000; i++ {
		k := fmt.Sprintf("\x01\x00\x00\x00\x00%04d\x01\x00\x00\x00\x00\x00\x00%02d", i/4, i%4)
		m.Ref(Hash(k), k)
	}
	longest := 0
	for _, b := range m.dir {
		if b != nil && len(b.entries) > longest {
			longest = len(b.entries)
		}
	}
	if mean := m.Len() / len(m.dir); mean > maxLoad || longest > 4*maxLoad {
		t.Fatalf("mean bucket %d (max %d), longest %d", mean, maxLoad, longest)
	}
}

// BenchmarkHash hashes a 64-byte key, the size of a LINEITEM row's.
func BenchmarkHash(b *testing.B) {
	key := string(make([]byte, 64))
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Hash(key)
	}
	_ = sink
}
