package snapshot

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/journal"
	"repro/internal/relation"
)

var (
	schemaR = relation.Schema{{Name: "a", Kind: relation.KindInt}, {Name: "b", Kind: relation.KindInt}}
)

func intRow(vals ...int64) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		t[i] = relation.NewInt(v)
	}
	return t
}

// build creates a warehouse with one base view, one SPJ view, and one
// aggregate view (SUM + MIN, so accumulator value-multisets round-trip).
func build(t testing.TB) *core.Warehouse {
	t.Helper()
	w := core.New(core.Options{})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.DefineBase("R", schemaR))
	jb := algebra.NewBuilder().From("r", "R", schemaR)
	jb.Where(&algebra.Binary{Op: algebra.OpGt, L: jb.Col("r.b"), R: &algebra.Const{Value: relation.NewInt(0)}}).
		SelectCol("r.a").SelectCol("r.b")
	jDef := jb.MustBuild()
	must(w.DefineDerived("J", jDef))
	ab := algebra.NewBuilder().From("j", "J", jDef.OutputSchema())
	ab.GroupByCol("j.a").
		Agg("total", delta.AggSum, ab.Col("j.b")).
		Agg("lo", delta.AggMin, ab.Col("j.b"))
	must(w.DefineDerived("A", ab.MustBuild()))
	must(w.LoadBase("R", []relation.Tuple{
		intRow(1, 10), intRow(1, 10), intRow(1, 3), intRow(2, 7), intRow(3, -5),
	}))
	must(w.RefreshAll())
	return w
}

func snapshotOf(t testing.TB, w *core.Warehouse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(w, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	w := build(t)
	data := snapshotOf(t, w)

	// Restore into a freshly declared (empty) warehouse.
	fresh := build(t)
	for _, name := range fresh.ViewNames() {
		v := fresh.MustView(name)
		if v.Table() != nil {
			v.Table().Clear()
		}
		if v.AggStore() != nil {
			v.AggStore().Clear()
		}
	}
	if err := Read(fresh, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	for _, name := range w.ViewNames() {
		a, b := w.MustView(name).SortedRows(), fresh.MustView(name).SortedRows()
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d rows", name, len(a), len(b))
		}
		for i := range a {
			if relation.CompareTuples(a[i].Tuple, b[i].Tuple) != 0 || a[i].Count != b[i].Count {
				t.Fatalf("%s row %d: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
	// The restored warehouse must be fully operational: stage an update
	// that deletes the aggregate's current minimum and verify.
	d := delta.New(schemaR)
	d.Add(intRow(1, 3), -1)
	d.Add(intRow(2, 100), 1)
	if err := fresh.StageDelta("R", d); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		comp string
		over []string
		inst string
	}{
		{comp: "J", over: []string{"R"}}, {inst: "R"},
		{comp: "A", over: []string{"J"}}, {inst: "J"}, {inst: "A"},
	} {
		var err error
		if step.comp != "" {
			_, err = fresh.Compute(step.comp, step.over)
		} else {
			_, err = fresh.Install(step.inst)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := fresh.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	rows := fresh.MustView("A").SortedRows()
	// Group 1 lost its min (3): lo becomes 10, total 20.
	if rows[0].Tuple.String() != "(1, 20, 10)" {
		t.Errorf("A after update = %v", rows)
	}
}

func TestWriteRefusesPending(t *testing.T) {
	w := build(t)
	d := delta.New(schemaR)
	d.Add(intRow(9, 9), 1)
	if err := w.StageDelta("R", d); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(w, &buf); err == nil || !strings.Contains(err.Error(), "pending") {
		t.Errorf("Write over pending changes: %v", err)
	}
	if err := Read(w, bytes.NewReader(nil)); err == nil || !strings.Contains(err.Error(), "pending") {
		t.Errorf("Read over pending changes: %v", err)
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	w := build(t)
	data := snapshotOf(t, w)

	cases := map[string][]byte{
		"empty":      nil,
		"bad header": append([]byte("NOTMAGIC"), data[8:]...),
		"truncated":  data[:len(data)/2],
	}
	// Flip a payload byte: checksum must catch it.
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0xFF
	cases["bitflip"] = flipped

	for name, corrupt := range cases {
		fresh := build(t)
		if err := Read(fresh, bytes.NewReader(corrupt)); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
}

func TestReadRejectsCatalogMismatch(t *testing.T) {
	w := build(t)
	data := snapshotOf(t, w)

	// A catalog with fewer views.
	small := core.New(core.Options{})
	if err := small.DefineBase("R", schemaR); err != nil {
		t.Fatal(err)
	}
	if err := Read(small, bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "views") {
		t.Errorf("view-count mismatch accepted: %v", err)
	}

	// Same view count, different names.
	renamed := core.New(core.Options{})
	for _, n := range []string{"X", "Y", "Z"} {
		if err := renamed.DefineBase(n, schemaR); err != nil {
			t.Fatal(err)
		}
	}
	if err := Read(renamed, bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "expects") {
		t.Errorf("name mismatch accepted: %v", err)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	// Two snapshots of equal state may differ byte-wise (map iteration
	// order), but restoring each must give identical warehouses.
	w := build(t)
	d1, d2 := snapshotOf(t, w), snapshotOf(t, w)
	for _, data := range [][]byte{d1, d2} {
		fresh := build(t)
		if err := Read(fresh, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		for _, name := range w.ViewNames() {
			a, b := w.MustView(name).SortedRows(), fresh.MustView(name).SortedRows()
			if len(a) != len(b) {
				t.Fatalf("%s row counts differ", name)
			}
		}
	}
}

// TestRandomizedRoundTrips snapshots randomized warehouse states (random
// data, after random incremental updates) and restores each into a fresh
// catalog, requiring exact state equality.
func TestRandomizedRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		w := build(t)
		// Replace the fixture data with random rows.
		w.MustView("R").Table().Clear()
		var rows []relation.Tuple
		for i := 0; i < 5+rng.Intn(40); i++ {
			rows = append(rows, intRow(rng.Int63n(6), rng.Int63n(20)-5))
		}
		if err := w.LoadBase("R", rows); err != nil {
			t.Fatal(err)
		}
		if err := w.RefreshAll(); err != nil {
			t.Fatal(err)
		}
		// Random incremental window so aggregate accumulators hold history.
		d := delta.New(schemaR)
		for _, r := range w.MustView("R").SortedRows() {
			if rng.Intn(3) == 0 {
				d.Add(r.Tuple, -1)
			}
		}
		d.Add(intRow(rng.Int63n(6), rng.Int63n(20)-5), 1)
		if err := w.StageDelta("R", d); err != nil {
			t.Fatal(err)
		}
		for _, step := range []struct {
			comp string
			over []string
			inst string
		}{
			{comp: "J", over: []string{"R"}}, {inst: "R"},
			{comp: "A", over: []string{"J"}}, {inst: "J"}, {inst: "A"},
		} {
			var err error
			if step.comp != "" {
				_, err = w.Compute(step.comp, step.over)
			} else {
				_, err = w.Install(step.inst)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		data := snapshotOf(t, w)
		fresh := build(t)
		if err := Read(fresh, bytes.NewReader(data)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, name := range w.ViewNames() {
			a, b := w.MustView(name).SortedRows(), fresh.MustView(name).SortedRows()
			if len(a) != len(b) {
				t.Fatalf("trial %d: %s: %d vs %d rows", trial, name, len(a), len(b))
			}
			for i := range a {
				if relation.CompareTuples(a[i].Tuple, b[i].Tuple) != 0 || a[i].Count != b[i].Count {
					t.Fatalf("trial %d: %s row %d differs", trial, name, i)
				}
			}
		}
		if err := fresh.VerifyAll(); err != nil {
			t.Fatalf("trial %d: restored warehouse inconsistent: %v", trial, err)
		}
	}
}

func TestAccumEncodeRoundTrip(t *testing.T) {
	specs := []delta.AggSpec{
		{Kind: delta.AggSum, ValueKind: relation.KindFloat},
		{Kind: delta.AggMin, ValueKind: relation.KindInt},
		{Kind: delta.AggCount, ValueKind: relation.KindInt},
	}
	for _, spec := range specs {
		a := delta.NewAccum(spec)
		a.Add(relation.NewFloat(2.5), 3)
		if spec.Kind == delta.AggMin {
			a = delta.NewAccum(spec)
			a.Add(relation.NewInt(7), 2)
			a.Add(relation.NewInt(9), 1)
		}
		raw := a.AppendBinary(nil)
		c := journal.NewCursor("test: accumulator", raw)
		dec := delta.DecodeAccum(c, spec)
		if err := c.Done(); err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		if relation.Compare(a.Output(3), dec.Output(3)) != 0 {
			t.Errorf("%v: %v vs %v", spec, a.Output(3), dec.Output(3))
		}
		// A cut state, the empty one included, is the cursor's error.
		for cut := range raw {
			c := journal.NewCursor("test: accumulator", raw[:cut])
			delta.DecodeAccum(c, spec)
			if c.Done() == nil {
				t.Errorf("%v: the state cut at %d/%d was read", spec, cut, len(raw))
			}
		}
	}
}
