package replicate

// Shared test harness: a deterministic random-warehouse generator (the same
// shape as the facade's online differential harness — integer columns keep
// bag comparisons exact), random change batches, and full-bag capture
// helpers for cross-replica comparison.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	warehouse "repro"
)

// buildRep constructs a random leveled warehouse through the public SQL API:
// 2–3 integer base views, then 1–3 derivation levels mixing filter, join,
// and aggregate views. Deterministic in seed, so leader and followers — and
// a "restarted" follower — build identical catalogs.
func buildRep(t *testing.T, seed int64) *warehouse.Warehouse {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := warehouse.New()
	type vi struct {
		name string
		cols []string
	}
	var all, prev []vi

	nBase := 2 + rng.Intn(2)
	for i := 0; i < nBase; i++ {
		name := fmt.Sprintf("B%d", i)
		w.MustDefineBase(name, warehouse.Schema{
			{Name: "c0", Kind: warehouse.KindInt},
			{Name: "c1", Kind: warehouse.KindInt},
		})
		var rows []warehouse.Tuple
		for r := 0; r < 8+rng.Intn(16); r++ {
			rows = append(rows, warehouse.Tuple{warehouse.Int(rng.Int63n(5)), warehouse.Int(rng.Int63n(5))})
		}
		if err := w.Load(name, rows); err != nil {
			t.Fatal(err)
		}
		v := vi{name, []string{"c0", "c1"}}
		all = append(all, v)
		prev = append(prev, v)
	}

	levels := 1 + rng.Intn(3)
	id := 0
	for level := 1; level <= levels; level++ {
		var cur []vi
		for k := 0; k < 1+rng.Intn(2); k++ {
			name := fmt.Sprintf("D%d", id)
			id++
			var sql string
			var cols []string
			switch rng.Intn(3) {
			case 0: // filter + projection
				src := prev[rng.Intn(len(prev))]
				a := src.cols[rng.Intn(len(src.cols))]
				b := src.cols[rng.Intn(len(src.cols))]
				sql = fmt.Sprintf("SELECT %s AS p0, %s AS p1 FROM %s WHERE %s <= %d",
					a, b, src.name, a, 1+rng.Int63n(6))
				cols = []string{"p0", "p1"}
			case 1: // join a previous-level view with any earlier view
				s1 := prev[rng.Intn(len(prev))]
				s2 := all[rng.Intn(len(all))]
				a := s1.cols[rng.Intn(len(s1.cols))]
				b := s2.cols[rng.Intn(len(s2.cols))]
				sql = fmt.Sprintf("SELECT x.%s AS j0, y.%s AS j1 FROM %s x, %s y WHERE x.%s = y.%s",
					a, b, s1.name, s2.name, a, b)
				cols = []string{"j0", "j1"}
			default: // aggregate
				src := prev[rng.Intn(len(prev))]
				g := src.cols[0]
				m := src.cols[len(src.cols)-1]
				sql = fmt.Sprintf("SELECT %s, SUM(%s) AS s, COUNT(*) AS n FROM %s GROUP BY %s",
					g, m, src.name, g)
				cols = []string{g, "s", "n"}
			}
			if err := w.DefineViewSQL(name, sql); err != nil {
				t.Fatalf("seed %d view %s (%s): %v", seed, name, sql, err)
			}
			v := vi{name, cols}
			cur = append(cur, v)
			all = append(all, v)
		}
		prev = cur
	}
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	return w
}

// stageRep stages a random change batch on every base view of the leader:
// inserts only, deletes only, or mixed.
func stageRep(t *testing.T, w *warehouse.Warehouse, rng *rand.Rand) {
	t.Helper()
	kind := rng.Intn(3)
	for _, name := range w.Views() {
		if name[0] != 'B' {
			continue
		}
		d, err := w.NewDelta(name)
		if err != nil {
			t.Fatal(err)
		}
		if kind != 0 {
			rows, err := w.Rows(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if rng.Intn(4) == 0 {
					d.Add(r.Tuple, -1)
				}
			}
		}
		if kind != 1 {
			for i := 0; i < 1+rng.Intn(5); i++ {
				d.Add(warehouse.Tuple{warehouse.Int(rng.Int63n(5)), warehouse.Int(rng.Int63n(5))}, 1)
			}
		}
		if err := w.StageDelta(name, d); err != nil {
			t.Fatal(err)
		}
	}
}

// captureBags reads every view's full sorted bag under one epoch pin.
func captureBags(t *testing.T, w *warehouse.Warehouse) map[string][]string {
	t.Helper()
	p := w.PinEpoch()
	defer p.Close()
	bags := make(map[string][]string)
	for _, v := range p.Views() {
		rows, err := p.Rows(v)
		if err != nil {
			t.Fatal(err)
		}
		lines := make([]string, 0, len(rows))
		for _, r := range rows {
			lines = append(lines, fmt.Sprintf("%v x%d", r.Tuple, r.Count))
		}
		bags[v] = lines
	}
	return bags
}

func bagsEqual(a, b map[string][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for v, ar := range a {
		br, ok := b[v]
		if !ok || len(ar) != len(br) {
			return false
		}
		for i := range ar {
			if ar[i] != br[i] {
				return false
			}
		}
	}
	return true
}

// randPresentationQuery builds a random ad-hoc query over one of w's views
// with the presentation clauses: ORDER BY (column name or 1-based ordinal,
// ASC/DESC, one or more keys) and LIMIT n OFFSET m. Replicas at the same
// epoch must answer it identically — the sort is stable over a
// deterministic input order, so bag-identical states give row-identical
// results, including ties.
func randPresentationQuery(t *testing.T, w *warehouse.Warehouse, rng *rand.Rand) string {
	t.Helper()
	views := w.Views()
	name := views[rng.Intn(len(views))]
	schema, err := w.ViewSchema(name)
	if err != nil {
		t.Fatal(err)
	}
	var sel []string
	for _, c := range schema {
		sel = append(sel, c.Name)
	}
	var obys []string
	for _, k := range rng.Perm(len(schema))[:1+rng.Intn(len(schema))] {
		ref := schema[k].Name
		if rng.Intn(2) == 0 {
			ref = fmt.Sprintf("%d", k+1)
		}
		if rng.Intn(2) == 0 {
			ref += " DESC"
		}
		obys = append(obys, ref)
	}
	return fmt.Sprintf("SELECT %s FROM %s ORDER BY %s LIMIT %d OFFSET %d",
		strings.Join(sel, ", "), name, strings.Join(obys, ", "),
		rng.Intn(20), rng.Intn(4))
}

// queryRows renders a query's result for cross-replica comparison.
func queryRows(t *testing.T, w *warehouse.Warehouse, sql string) []string {
	t.Helper()
	rows, err := w.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

// stepDigests extracts the installed-delta digest of every non-skipped step
// of a window report, keyed by step expression — the per-window artifact the
// differential harness compares leader vs follower.
func stepDigests(rep warehouse.WindowReport) map[string]uint64 {
	out := make(map[string]uint64)
	for _, s := range rep.Report.Steps {
		if !s.Skipped {
			out[s.Expr.Key()] = s.Digest
		}
	}
	return out
}

func digestsEqual(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
