package csvio

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/delta"
	"repro/internal/relation"
	"repro/internal/storage"
)

var schema = relation.Schema{
	{Name: "id", Kind: relation.KindInt},
	{Name: "name", Kind: relation.KindString},
	{Name: "price", Kind: relation.KindFloat},
	{Name: "day", Kind: relation.KindDate},
	{Name: "ok", Kind: relation.KindBool},
}

const sample = `id,name,price,day,ok
1,widget,9.99,2026-01-02,true
2,"gadget, large",100,2026-03-04,false
3,,5,2026-05-06,true
`

func TestReadRows(t *testing.T) {
	rows, err := ReadRows(strings.NewReader(sample), schema)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0].Int() != 1 || rows[0][1].Str() != "widget" || rows[0][2].Float() != 9.99 {
		t.Errorf("row 0 = %v", rows[0])
	}
	if rows[1][1].Str() != "gadget, large" {
		t.Errorf("quoted field = %q", rows[1][1].Str())
	}
	if !rows[2][1].IsNull() {
		t.Errorf("empty field should be NULL")
	}
	if rows[0][3].String() != "2026-01-02" || !rows[0][4].Bool() {
		t.Errorf("date/bool = %v %v", rows[0][3], rows[0][4])
	}
}

func TestReadRowsColumnPermutation(t *testing.T) {
	csvData := "name,id,price,day,ok\nw,7,1,2026-01-01,false\n"
	rows, err := ReadRows(strings.NewReader(csvData), schema)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int() != 7 || rows[0][1].Str() != "w" {
		t.Errorf("permuted row = %v", rows[0])
	}
}

func TestReadRowsErrors(t *testing.T) {
	bad := []string{
		"",                       // no header
		"id,name\n1,x\n",         // wrong column count
		"id,nope,price,day,ok\n", // unknown column
		"id,id,price,day,ok\n",   // duplicate column
		"id,name,price,day,ok\nX,a,1,2026-01-01,true\n",  // bad int
		"id,name,price,day,ok\n1,a,X,2026-01-01,true\n",  // bad float
		"id,name,price,day,ok\n1,a,1,notadate,true\n",    // bad date
		"id,name,price,day,ok\n1,a,1,2026-01-01,maybe\n", // bad bool
		"id,name,price,day,ok\n1,a\n",                    // short record
	}
	for _, s := range bad {
		if _, err := ReadRows(strings.NewReader(s), schema); err == nil {
			t.Errorf("accepted %q", s)
		}
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	d := delta.New(schema)
	d.Add(relation.Tuple{relation.NewInt(1), relation.NewString("a"), relation.NewFloat(2), relation.NewDate(10), relation.NewBool(true)}, 3)
	d.Add(relation.Tuple{relation.NewInt(2), relation.NewString("b"), relation.NewFloat(4), relation.NewDate(20), relation.NewBool(false)}, -2)
	d.Seal()
	var buf bytes.Buffer
	if err := WriteDelta(&buf, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "__count") {
		t.Fatalf("missing count column:\n%s", buf.String())
	}
	back, err := ReadDelta(&buf, schema)
	if err != nil {
		t.Fatal(err)
	}
	if back.PlusCount() != 3 || back.MinusCount() != 2 {
		t.Errorf("round trip = +%d −%d", back.PlusCount(), back.MinusCount())
	}
}

func TestReadDeltaWithoutCountColumn(t *testing.T) {
	// A plain rows file is a pure-insert batch.
	d, err := ReadDelta(strings.NewReader(sample), schema)
	if err != nil {
		t.Fatal(err)
	}
	if d.PlusCount() != 3 || d.MinusCount() != 0 {
		t.Errorf("delta = +%d −%d", d.PlusCount(), d.MinusCount())
	}
}

func TestReadDeltaErrors(t *testing.T) {
	bad := []string{
		"id,name,price,day,ok,__count\n1,a,1,2026-01-01,true,X\n",
		"id,name,price,day,ok,__count\n1,a,1,2026-01-01,true\n",
		"",
	}
	for _, s := range bad {
		if _, err := ReadDelta(strings.NewReader(s), schema); err == nil {
			t.Errorf("accepted %q", s)
		}
	}
}

func TestWriteRowsExpandsDuplicates(t *testing.T) {
	tbl := storage.NewTable(relation.Schema{{Name: "x", Kind: relation.KindInt}})
	tbl.Insert(relation.Tuple{relation.NewInt(5)}, 2)
	var buf bytes.Buffer
	if err := WriteRows(&buf, tbl.Schema(), tbl); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "5\n"); got != 2 {
		t.Errorf("duplicates not expanded:\n%s", buf.String())
	}
	// Round trip through ReadRows.
	rows, err := ReadRows(&buf, tbl.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("rows = %v", rows)
	}
}
