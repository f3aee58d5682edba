package relation

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestValueAccessors(t *testing.T) {
	if got := NewInt(42).Int(); got != 42 {
		t.Errorf("Int() = %d, want 42", got)
	}
	if got := NewFloat(2.5).Float(); got != 2.5 {
		t.Errorf("Float() = %v, want 2.5", got)
	}
	if got := NewInt(7).Float(); got != 7 {
		t.Errorf("Float() on int = %v, want 7", got)
	}
	if got := NewString("abc").Str(); got != "abc" {
		t.Errorf("Str() = %q, want abc", got)
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Errorf("Bool accessors wrong")
	}
	if !Null.IsNull() || NewInt(0).IsNull() {
		t.Errorf("IsNull wrong")
	}
	d := MustDate("1995-03-15")
	if d.Kind() != KindDate {
		t.Fatalf("MustDate kind = %v", d.Kind())
	}
	if d.String() != "1995-03-15" {
		t.Errorf("date round trip = %q", d.String())
	}
}

func TestDateParseError(t *testing.T) {
	if _, err := DateFromString("not-a-date"); err == nil {
		t.Errorf("expected error for bad date")
	}
}

func TestValuePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Int on string", func() { NewString("x").Int() })
	mustPanic("Str on int", func() { NewInt(1).Str() })
	mustPanic("Bool on int", func() { NewInt(1).Bool() })
	mustPanic("Days on int", func() { NewInt(1).Days() })
	mustPanic("Float on string", func() { NewString("x").Float() })
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewInt(2), NewFloat(1.5), 1},
		{NewFloat(2), NewInt(2), 0},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{Null, Null, 0},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewDate(10), NewDate(11), -1},
		{NewBool(false), NewBool(true), -1},
		// NaN sorts after every number, integers included, and equals itself.
		{NewFloat(math.NaN()), NewFloat(math.Inf(1)), 1},
		{NewFloat(math.MaxFloat64), NewFloat(math.NaN()), -1},
		{NewInt(math.MaxInt64), NewFloat(math.NaN()), -1},
		{NewFloat(math.NaN()), NewFloat(math.NaN()), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareDifferentKindsIsAntisymmetric(t *testing.T) {
	vals := []Value{Null, NewInt(3), NewFloat(3.5), NewFloat(math.NaN()), NewString("s"), NewDate(100), NewBool(true)}
	for _, a := range vals {
		for _, b := range vals {
			if Compare(a, b) != -Compare(b, a) {
				t.Errorf("Compare(%v,%v) not antisymmetric", a, b)
			}
		}
	}
}

func TestTupleEncodeRoundTrip(t *testing.T) {
	orig := Tuple{NewInt(-5), NewFloat(math.Pi), NewString("héllo"), Null, NewDate(9000), NewBool(true)}
	dec, err := DecodeTuple(orig.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if CompareTuples(orig, dec) != 0 {
		t.Errorf("round trip mismatch: %v vs %v", orig, dec)
	}
}

// TestDecodeTupleOneAllocation: a decode reads the encoding in place — no
// byte copy, no string copies — and allocates the tuple once, at full size.
func TestDecodeTupleOneAllocation(t *testing.T) {
	enc := Tuple{NewInt(7), NewString("a string long enough to need its own allocation"), NewFloat(2.5),
		NewString("and another"), Null, NewDate(9000), NewBool(true)}.Encode()
	var dec Tuple
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if dec, err = DecodeTuple(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 || cap(dec) != 7 {
		t.Fatalf("DecodeTuple allocated %v times for a tuple of capacity %d, want once and 7", allocs, cap(dec))
	}
	// A huge claimed string length must be refused, not wrapped around.
	if _, err := DecodeTuple("\x03\xff\xff\xff\xff\xff\xff\xff\xffab"); err == nil {
		t.Fatal("string length 2^64-1 accepted")
	}
}

func TestEncodeInjective(t *testing.T) {
	// Strings that could collide with ints under naive encodings.
	a := Tuple{NewString("ab"), NewString("c")}
	b := Tuple{NewString("a"), NewString("bc")}
	if a.Encode() == b.Encode() {
		t.Errorf("encoding not injective for split strings")
	}
	c := Tuple{NewInt(0)}
	d := Tuple{NewFloat(0)}
	if c.Encode() == d.Encode() {
		t.Errorf("encoding conflates int 0 and float 0")
	}
}

func TestDecodeTupleErrors(t *testing.T) {
	bad := []string{"\x01", "\x03\x00\x00\x00\x00\x00\x00\x00\x05ab", "\xff", "\x03\x00"}
	for _, s := range bad {
		if _, err := DecodeTuple(s); err == nil {
			t.Errorf("DecodeTuple(%q): expected error", s)
		}
	}
}

func TestEncodeRoundTripQuick(t *testing.T) {
	f := func(i int64, fl float64, s string, d int32, b bool) bool {
		if math.IsNaN(fl) {
			fl = 0
		}
		tup := Tuple{NewInt(i), NewFloat(fl), NewString(s), NewDate(int64(d)), NewBool(b)}
		dec, err := DecodeTuple(tup.Encode())
		if err != nil {
			return false
		}
		return CompareTuples(tup, dec) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeInjectiveQuick(t *testing.T) {
	f := func(a1, b1 int64, a2, b2 string) bool {
		ta := Tuple{NewInt(a1), NewString(a2)}
		tb := Tuple{NewInt(b1), NewString(b2)}
		same := a1 == b1 && a2 == b2
		return (ta.Encode() == tb.Encode()) == same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleOps(t *testing.T) {
	a := Tuple{NewInt(1), NewInt(2)}
	b := Tuple{NewInt(3)}
	c := a.Concat(b)
	if len(c) != 3 || c[2].Int() != 3 {
		t.Errorf("Concat wrong: %v", c)
	}
	cl := a.Clone()
	cl[0] = NewInt(99)
	if a[0].Int() != 1 {
		t.Errorf("Clone aliases backing array")
	}
	p := c.Project([]int{2, 0})
	if p[0].Int() != 3 || p[1].Int() != 1 {
		t.Errorf("Project wrong: %v", p)
	}
	if a.String() != "(1, 2)" {
		t.Errorf("String = %q", a.String())
	}
}

func TestCompareTuplesLexicographic(t *testing.T) {
	tuples := []Tuple{
		{NewInt(2), NewInt(1)},
		{NewInt(1)},
		{NewInt(1), NewInt(9)},
		{NewInt(1), NewInt(2)},
	}
	sort.Slice(tuples, func(i, j int) bool { return CompareTuples(tuples[i], tuples[j]) < 0 })
	want := []string{"(1)", "(1, 2)", "(1, 9)", "(2, 1)"}
	for i, w := range want {
		if tuples[i].String() != w {
			t.Errorf("sorted[%d] = %v, want %s", i, tuples[i], w)
		}
	}
}

func TestSchemaOps(t *testing.T) {
	s := Schema{{"a", KindInt}, {"b", KindString}}
	if s.ColumnIndex("b") != 1 || s.ColumnIndex("z") != -1 {
		t.Errorf("ColumnIndex wrong")
	}
	if s.MustColumnIndex("a") != 0 {
		t.Errorf("MustColumnIndex wrong")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("MustColumnIndex should panic on missing column")
		}
	}()
	q := s.Qualify("T")
	if q[0].Name != "T.a" || q[1].Name != "T.b" {
		t.Errorf("Qualify wrong: %v", q)
	}
	if !s.Equal(s.Clone()) {
		t.Errorf("Clone not Equal")
	}
	if s.Equal(q) {
		t.Errorf("Equal should distinguish qualified schema")
	}
	cat := s.Concat(q)
	if len(cat) != 4 || cat[2].Name != "T.a" {
		t.Errorf("Concat wrong: %v", cat)
	}
	if got := s.String(); got != "a INTEGER, b VARCHAR" {
		t.Errorf("String = %q", got)
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "a" {
		t.Errorf("Names = %v", names)
	}
	s.MustColumnIndex("zzz") // panics
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		KindNull: "NULL", KindInt: "INTEGER", KindFloat: "FLOAT",
		KindString: "VARCHAR", KindDate: "DATE", KindBool: "BOOLEAN", Kind(99): "Kind(99)",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL": Null, "5": NewInt(5), "2.5": NewFloat(2.5),
		"x": NewString("x"), "true": NewBool(true), "false": NewBool(false),
	}
	for want, v := range cases {
		if v.String() != want {
			t.Errorf("String() = %q, want %q", v.String(), want)
		}
	}
}
