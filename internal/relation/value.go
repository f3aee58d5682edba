// Package relation provides the value, tuple and schema primitives shared by
// every layer of the warehouse engine: typed scalar values, fixed-schema
// tuples, deterministic tuple encoding (used as map keys by the counted bag
// tables and delta relations), and ordering.
package relation

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the scalar types the engine supports.
type Kind uint8

const (
	// KindNull is the type of the SQL NULL value.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is an immutable byte string.
	KindString
	// KindDate is a calendar date stored as days since 1970-01-01.
	KindDate
	// KindBool is a boolean.
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindDate:
		return "DATE"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a scalar runtime value. The zero Value is NULL.
//
// Value is a small struct rather than an interface so that tuples are flat
// slices with no per-value heap allocation; this matters because the engine's
// work model is "scan operands once" and value handling dominates scans. Every
// fixed-width kind keeps its payload in the one word i, so a Value is four
// words (32 bytes) and every stored, scanned or served tuple is a slice of them.
type Value struct {
	kind Kind
	i    int64 // int, date (days since epoch), bool (0/1), float (IEEE bits)
	s    string
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// canonicalNaN is the bit pattern of the one NaN a float value holds.
var canonicalNaN = int64(math.Float64bits(math.NaN()))

// NewFloat returns a float value. It stores −0 as +0 and every NaN as the
// one NaN math.NaN returns, so that values Compare calls equal also encode
// alike: they land in one group and one key.
func NewFloat(v float64) Value {
	switch {
	case v == 0:
		return Value{kind: KindFloat}
	case v != v:
		return Value{kind: KindFloat, i: canonicalNaN}
	}
	return Value{kind: KindFloat, i: int64(math.Float64bits(v))}
}

// NewString returns a string value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	if v {
		return Value{kind: KindBool, i: 1}
	}
	return Value{kind: KindBool}
}

// NewDate returns a date value from days since the Unix epoch.
func NewDate(days int64) Value { return Value{kind: KindDate, i: days} }

// DateFromString parses a YYYY-MM-DD date.
func DateFromString(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Null, fmt.Errorf("relation: bad date %q: %w", s, err)
	}
	return NewDate(t.Unix() / 86400), nil
}

// MustDate parses a YYYY-MM-DD date and panics on error. It is intended for
// literals in tests and generators.
func MustDate(s string) Value {
	v, err := DateFromString(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Kind reports the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It panics if the value is not an integer
// or a date.
func (v Value) Int() int64 {
	if v.kind != KindInt && v.kind != KindDate {
		panic(fmt.Sprintf("relation: Int() on %s value", v.kind))
	}
	return v.i
}

// Float returns the float payload, widening integers.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.float()
	case KindInt, KindDate:
		return float64(v.i)
	default:
		panic(fmt.Sprintf("relation: Float() on %s value", v.kind))
	}
}

// float reads the payload word of a float value as the float it holds.
func (v Value) float() float64 { return math.Float64frombits(uint64(v.i)) }

// Str returns the string payload. It panics if the value is not a string.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("relation: Str() on %s value", v.kind))
	}
	return v.s
}

// Bool returns the boolean payload. It panics if the value is not a boolean.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("relation: Bool() on %s value", v.kind))
	}
	return v.i != 0
}

// Days returns the date payload as days since the epoch. It panics if the
// value is not a date.
func (v Value) Days() int64 {
	if v.kind != KindDate {
		panic(fmt.Sprintf("relation: Days() on %s value", v.kind))
	}
	return v.i
}

// numericKinds reports whether both kinds can be compared numerically.
func numericKinds(a, b Kind) bool {
	num := func(k Kind) bool { return k == KindInt || k == KindFloat }
	return num(a) && num(b)
}

// Compare orders two values. NULL sorts before everything; values of
// different non-numeric kinds compare by kind. Integers and floats compare
// numerically with each other, and NaN sorts after every number and equals
// itself, as in PostgreSQL, so that ORDER BY, MIN and MAX see one total order.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.kind != b.kind {
		if numericKinds(a.kind, b.kind) {
			return cmpFloat(a.Float(), b.Float())
		}
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindInt, KindDate, KindBool:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		default:
			return 0
		}
	case KindFloat:
		return cmpFloat(a.float(), b.float())
	case KindString:
		return strings.Compare(a.s, b.s)
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	// At least one is NaN, which sorts last.
	switch aNaN, bNaN := a != a, b != b; {
	case aNaN && bNaN:
		return 0
	case aNaN:
		return 1
	default:
		return -1
	}
}

// Equal reports whether two values are equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Identical reports whether two values encode alike — the same kind and the
// same bits — which is the equality of stored keys and of hash-join keys.
// Equal is coarser: it also holds between an integer and the float of the
// same value, and between a float NewFloat made and one decoded from bits it
// would not make (a −0 or another NaN).
func Identical(a, b Value) bool {
	return a.kind == b.kind && a.i == b.i && a.s == b.s
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindDate:
		return time.Unix(v.i*86400, 0).UTC().Format("2006-01-02")
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// appendEncoded appends a self-delimiting binary encoding of v to dst. The
// encoding is injective across values of all kinds, which is what the counted
// bag tables require of their map keys.
func (v Value) appendEncoded(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindInt, KindDate, KindBool, KindFloat:
		dst = appendUint64(dst, uint64(v.i))
	case KindString:
		dst = appendUint64(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	}
	return dst
}

func appendUint64(dst []byte, u uint64) []byte {
	return append(dst,
		byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

func decodeUint64(src string) uint64 {
	return uint64(src[0])<<56 | uint64(src[1])<<48 | uint64(src[2])<<40 | uint64(src[3])<<32 |
		uint64(src[4])<<24 | uint64(src[5])<<16 | uint64(src[6])<<8 | uint64(src[7])
}

// encodedSize validates the value encoding at the head of src and returns
// its length in bytes.
func encodedSize(src string) (int, error) {
	switch k := Kind(src[0]); k {
	case KindNull:
		return 1, nil
	case KindInt, KindDate, KindBool, KindFloat:
		if len(src) < 9 {
			return 0, fmt.Errorf("relation: truncated %s encoding", k)
		}
		return 9, nil
	case KindString:
		if len(src) < 9 {
			return 0, fmt.Errorf("relation: truncated VARCHAR length")
		}
		n := decodeUint64(src[1:])
		if uint64(len(src)-9) < n {
			return 0, fmt.Errorf("relation: truncated VARCHAR payload")
		}
		return 9 + int(n), nil
	default:
		return 0, fmt.Errorf("relation: unknown kind byte %d", k)
	}
}

// decodeValue decodes the value at the head of src, which encodedSize has
// validated, and returns the remainder. A string value aliases src. A float
// keeps the bits it was encoded with, canonical or not, so that a decoded
// tuple re-encodes byte for byte.
func decodeValue(src string) (Value, string) {
	switch k := Kind(src[0]); k {
	case KindInt, KindDate, KindBool, KindFloat:
		return Value{kind: k, i: int64(decodeUint64(src[1:]))}, src[9:]
	case KindString:
		end := 9 + int(decodeUint64(src[1:]))
		return Value{kind: k, s: src[9:end]}, src[end:]
	default:
		return Null, src[1:]
	}
}
