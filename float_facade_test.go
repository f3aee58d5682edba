package warehouse

import (
	"math"
	"strings"
	"testing"
)

// TestFloatsAreTotallyOrderedAndCanonical: a NaN, which CSV input and Float
// both let in, sorts after every number and equals only itself, and −0 is
// stored as 0, so ORDER BY, a filter and GROUP BY agree on one order and one
// equality.
func TestFloatsAreTotallyOrderedAndCanonical(t *testing.T) {
	w := New()
	w.MustDefineBase("T", Schema{{Name: "id", Kind: KindInt}, {Name: "x", Kind: KindFloat}})
	if _, err := w.LoadCSV("T", strings.NewReader("id,x\n1,3\n2,NaN\n3,1\n4,2\n5,0\n")); err != nil {
		t.Fatal(err)
	}
	if err := w.Load("T", []Tuple{{Int(6), Float(math.Copysign(0, -1))}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ sql, want string }{
		{"SELECT x FROM T ORDER BY x", "(0) (0) (1) (2) (3) (NaN)"},
		{"SELECT x FROM T ORDER BY x DESC", "(NaN) (3) (2) (1) (0) (0)"},
		{"SELECT id FROM T WHERE x = 2", "(4)"},
		{"SELECT id FROM T WHERE x = 0 ORDER BY id", "(5) (6)"},
		{"SELECT x, COUNT(*) AS n FROM T GROUP BY x ORDER BY x", "(0, 2) (1, 1) (2, 1) (3, 1) (NaN, 1)"},
		{"SELECT MIN(x) AS lo, MAX(x) AS hi FROM T", "(0, NaN)"},
	} {
		if got := queryString(t, w, c.sql); got != c.want {
			t.Errorf("%s = %s, want %s", c.sql, got, c.want)
		}
	}
}

// TestIncrementalMaxOverNaN: a MAX view maintained through windows that
// insert and delete a NaN row equals its recomputation after each, and NaN
// is the maximum while it is there.
func TestIncrementalMaxOverNaN(t *testing.T) {
	w := New()
	w.MustDefineBase("T", Schema{{Name: "g", Kind: KindInt}, {Name: "x", Kind: KindFloat}})
	w.MustDefineViewSQL("TOP", "SELECT g, MAX(x) AS hi FROM T GROUP BY g")
	if _, err := w.LoadCSV("T", strings.NewReader("g,x\n1,3\n1,1\n2,5\n")); err != nil {
		t.Fatal(err)
	}
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct{ delta, want string }{
		{"g,x,__count\n1,NaN,1\n2,NaN,1\n", "(1, NaN) (2, NaN)"},
		{"g,x,__count\n1,3,-1\n2,NaN,-1\n", "(1, NaN) (2, 5)"},
		{"g,x,__count\n1,NaN,-1\n", "(1, 1) (2, 5)"},
	} {
		if _, err := w.StageDeltaCSV("T", strings.NewReader(step.delta)); err != nil {
			t.Fatal(err)
		}
		rep, err := w.RunWindow(MinWorkPlanner)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Attempts != 1 {
			t.Errorf("window over %q took %d attempts (recomputed %v), want the incremental one", step.delta, rep.Attempts, rep.Recomputed)
		}
		if err := w.Verify(); err != nil {
			t.Fatalf("after %q: %v", step.delta, err)
		}
		if got := queryString(t, w, "SELECT g, hi FROM TOP ORDER BY g"); got != step.want {
			t.Errorf("after %q: TOP = %s, want %s", step.delta, got, step.want)
		}
	}
}

func queryString(t *testing.T, w *Warehouse, sql string) string {
	t.Helper()
	rows, err := w.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return strings.Join(out, " ")
}
