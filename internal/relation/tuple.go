package relation

import (
	"fmt"
	"strings"
)

// Tuple is a row of values laid out according to some Schema.
type Tuple []Value

// Encode returns an injective, self-delimiting binary encoding of the tuple,
// suitable for use as a map key. Two tuples encode equal iff every value
// compares Equal positionally.
func (t Tuple) Encode() string {
	return string(t.AppendEncoded(make([]byte, 0, 16*len(t))))
}

// AppendEncoded appends the tuple's Encode bytes to dst and returns the
// extended slice. It is the zero-allocation form of Encode for hot paths
// that reuse a scratch buffer across rows (hash-join probing, sink
// sharding).
func (t Tuple) AppendEncoded(dst []byte) []byte {
	for _, v := range t {
		dst = v.appendEncoded(dst)
	}
	return dst
}

// DecodeTuple reverses Tuple.Encode. It reads enc in place — string values
// of the result are substrings of enc, not copies — and sizes the tuple in
// one allocation: a first pass validates and counts the values, the second
// decodes them.
func DecodeTuple(enc string) (Tuple, error) {
	n := 0
	for rest := enc; len(rest) > 0; n++ {
		size, err := encodedSize(rest)
		if err != nil {
			return nil, err
		}
		rest = rest[size:]
	}
	t := make(Tuple, n)
	for i := range t {
		t[i], enc = decodeValue(enc)
	}
	return t, nil
}

// Clone returns a copy of the tuple that shares no backing array.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Concat returns the concatenation of t and u as a fresh tuple.
func (t Tuple) Concat(u Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(u))
	out = append(out, t...)
	out = append(out, u...)
	return out
}

// Project returns the tuple restricted to the given column indexes.
func (t Tuple) Project(idx []int) Tuple {
	out := make(Tuple, len(idx))
	for i, j := range idx {
		out[i] = t[j]
	}
	return out
}

// CompareTuples orders tuples lexicographically; shorter tuples sort first on
// ties of the shared prefix.
func CompareTuples(a, b Tuple) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of named, typed columns.
type Schema []Column

// ColumnIndex returns the index of the named column, or -1.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// MustColumnIndex is ColumnIndex that panics on a missing column; for use
// where the binder has already validated names.
func (s Schema) MustColumnIndex(name string) int {
	i := s.ColumnIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("relation: no column %q in schema %v", name, s.Names()))
	}
	return i
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Clone returns an independent copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// Concat returns the schema of a concatenated tuple.
func (s Schema) Concat(o Schema) Schema {
	out := make(Schema, 0, len(s)+len(o))
	out = append(out, s...)
	out = append(out, o...)
	return out
}

// Equal reports whether two schemas have identical column names and kinds.
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Qualify returns a copy of the schema with every column renamed to
// "alias.name". Binder output uses qualified names throughout so joins of
// same-named columns stay unambiguous.
func (s Schema) Qualify(alias string) Schema {
	out := make(Schema, len(s))
	for i, c := range s {
		out[i] = Column{Name: alias + "." + c.Name, Kind: c.Kind}
	}
	return out
}

// String renders the schema as "name KIND, ...".
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = c.Name + " " + c.Kind.String()
	}
	return strings.Join(parts, ", ")
}
