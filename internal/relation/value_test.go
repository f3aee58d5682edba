package relation

import (
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestValueIsFourWords: a kind word, one payload word for every fixed-width
// kind, and a string header. Every tuple the engine stores, scans or serves
// is a slice of these.
func TestValueIsFourWords(t *testing.T) {
	if size := reflect.TypeFor[Value]().Size(); size != 32 {
		t.Fatalf("relation.Value is %d bytes, want 32", size)
	}
}

// edgeValues are values at the ends of each kind's range, with the encoding
// each had when a float kept a field of its own: moving the float into the
// integer word changed no byte.
var edgeValues = []struct {
	v   Value
	hex string
}{
	{NewInt(math.MinInt64), "018000000000000000"},
	{NewInt(math.MaxInt64), "017fffffffffffffff"},
	{NewFloat(math.Inf(-1)), "02fff0000000000000"},
	{NewFloat(math.Inf(1)), "027ff0000000000000"},
	{NewFloat(math.SmallestNonzeroFloat64), "020000000000000001"},
	{NewFloat(math.MaxFloat64), "027fefffffffffffff"},
	{NewFloat(math.NaN()), "027ff8000000000001"},
	{MustDate("1969-07-20"), "04ffffffffffffff5b"},
	{NewBool(false), "050000000000000000"},
	{NewBool(true), "050000000000000001"},
	{NewString(""), "030000000000000000"},
}

func TestEdgeValuesRoundTrip(t *testing.T) {
	for _, c := range edgeValues {
		enc := Tuple{c.v}.Encode()
		if got := hex.EncodeToString([]byte(enc)); got != c.hex {
			t.Errorf("%v encodes as %s, want %s", c.v, got, c.hex)
		}
		dec, err := DecodeTuple(enc)
		if err != nil || len(dec) != 1 || !Identical(dec[0], c.v) {
			t.Errorf("%v decodes as %v (%v)", c.v, dec, err)
		}
	}
	for _, a := range edgeValues {
		for _, b := range edgeValues {
			if isNaN(a.v) || isNaN(b.v) {
				continue
			}
			if got, want := Compare(a.v, b.v), fieldWiseCompare(a.v, b.v); got != want {
				t.Errorf("Compare(%v, %v) = %d, field by field %d", a.v, b.v, got, want)
			}
		}
	}
}

func isNaN(v Value) bool { return v.kind == KindFloat && math.IsNaN(v.Float()) }

// fieldWiseCompare is the order of values spelled out on their payloads:
// NULL first, an integer and a float by their numeric value, other kinds of
// different kind by kind byte, and values of one kind by integer, float or
// string payload.
func fieldWiseCompare(a, b Value) int {
	cmp3 := func(less, greater bool) int {
		switch {
		case less:
			return -1
		case greater:
			return 1
		}
		return 0
	}
	numeric := func(k Kind) bool { return k == KindInt || k == KindFloat }
	switch {
	case a.kind == KindNull || b.kind == KindNull:
		return cmp3(a.kind == KindNull && b.kind != KindNull, b.kind == KindNull && a.kind != KindNull)
	case a.kind != b.kind && numeric(a.kind) && numeric(b.kind):
		return cmp3(a.Float() < b.Float(), a.Float() > b.Float())
	case a.kind != b.kind:
		return cmp3(a.kind < b.kind, a.kind > b.kind)
	case a.kind == KindFloat:
		return cmp3(a.Float() < b.Float(), a.Float() > b.Float())
	case a.kind == KindString:
		return strings.Compare(a.s, b.s)
	}
	return cmp3(a.i < b.i, a.i > b.i)
}

// TestNewFloatIsCanonical: −0 is stored as 0 and every NaN as math.NaN's, so
// floats Compare calls equal encode alike. A decoded float keeps its bits,
// so an encoding written with another NaN or with −0 re-encodes byte for
// byte.
func TestNewFloatIsCanonical(t *testing.T) {
	negZero := math.Copysign(0, -1)
	otherNaN := math.Float64frombits(0xfff8000000000123)
	if !Identical(NewFloat(negZero), NewFloat(0)) {
		t.Errorf("NewFloat(-0) = %x, want 0's bits", Tuple{NewFloat(negZero)}.Encode())
	}
	if !Identical(NewFloat(otherNaN), NewFloat(math.NaN())) {
		t.Errorf("NewFloat(NaN 0x…123) = %x, want math.NaN()'s bits", Tuple{NewFloat(otherNaN)}.Encode())
	}
	for _, enc := range []string{"\x02\x80\x00\x00\x00\x00\x00\x00\x00", "\x02\xff\xf8\x00\x00\x00\x00\x01\x23"} {
		dec, err := DecodeTuple(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got := dec.Encode(); got != enc {
			t.Errorf("%x re-encodes as %x", enc, got)
		}
		if !Equal(dec[0], NewFloat(math.Float64frombits(decodeUint64(enc[1:])))) {
			t.Errorf("decoded %x is not Equal to its canonical value", enc)
		}
	}
}
