package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/delta"
	"repro/internal/relation"
)

var (
	schemaR = relation.Schema{{Name: "a", Kind: relation.KindInt}, {Name: "b", Kind: relation.KindInt}}
	schemaS = relation.Schema{{Name: "b", Kind: relation.KindInt}, {Name: "c", Kind: relation.KindInt}}
)

func intRow(vals ...int64) relation.Tuple {
	t := make(relation.Tuple, len(vals))
	for i, v := range vals {
		t[i] = relation.NewInt(v)
	}
	return t
}

// newJoinWarehouse builds: base R(a,b), base S(b,c), derived J = R ⋈ S on b
// projecting (a, c), and derived A = SELECT a, SUM(c) FROM J GROUP BY a.
func newJoinWarehouse(t *testing.T) *Warehouse {
	t.Helper()
	w := New(Options{})
	if err := w.DefineBase("R", schemaR); err != nil {
		t.Fatal(err)
	}
	if err := w.DefineBase("S", schemaS); err != nil {
		t.Fatal(err)
	}
	jb := algebra.NewBuilder().From("r", "R", schemaR).From("s", "S", schemaS)
	jb.Join("r.b", "s.b").SelectCol("r.a").SelectCol("s.c")
	j, err := jb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DefineDerived("J", j); err != nil {
		t.Fatal(err)
	}
	jSchema := j.OutputSchema()
	ab := algebra.NewBuilder().From("j", "J", jSchema)
	ab.GroupByCol("j.a").Agg("total", delta.AggSum, ab.Col("j.c"))
	a, err := ab.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DefineDerived("A", a); err != nil {
		t.Fatal(err)
	}
	return w
}

func loadJoinData(t *testing.T, w *Warehouse) {
	t.Helper()
	if err := w.LoadBase("R", []relation.Tuple{intRow(1, 10), intRow(2, 10), intRow(3, 20)}); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadBase("S", []relation.Tuple{intRow(10, 100), intRow(10, 200), intRow(20, 300)}); err != nil {
		t.Fatal(err)
	}
	if err := w.RefreshAll(); err != nil {
		t.Fatal(err)
	}
}

func TestDefineErrors(t *testing.T) {
	w := New(Options{})
	if err := w.DefineBase("", schemaR); err == nil {
		t.Errorf("empty name accepted")
	}
	if err := w.DefineBase("R", nil); err == nil {
		t.Errorf("empty schema accepted")
	}
	// A column named twice could never be loaded (csvio refuses the header),
	// and a query would bind the first silently.
	twice := relation.Schema{{Name: "a", Kind: relation.KindInt}, {Name: "a", Kind: relation.KindInt}}
	if err := w.DefineBase("T", twice); err == nil || !strings.Contains(err.Error(), `duplicate output column "a"`) {
		t.Errorf("schema naming a twice: %v", err)
	}
	if err := w.DefineBase("R", schemaR); err != nil {
		t.Fatal(err)
	}
	if err := w.DefineBase("R", schemaR); err == nil {
		t.Errorf("duplicate name accepted")
	}
	if err := w.DefineDerived("D", nil); err == nil {
		t.Errorf("nil def accepted")
	}
	// Ref to unknown view.
	cq := algebra.NewBuilder().From("x", "X", schemaR)
	cq.SelectCol("x.a")
	def, err := cq.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DefineDerived("D", def); err == nil {
		t.Errorf("undefined ref accepted")
	}
	// Ref schema mismatch.
	cq2 := algebra.NewBuilder().From("r", "R", schemaS)
	cq2.SelectCol("r.b")
	def2, err := cq2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DefineDerived("D", def2); err == nil {
		t.Errorf("schema mismatch accepted")
	}
}

func TestRefreshAndRecompute(t *testing.T) {
	w := newJoinWarehouse(t)
	loadJoinData(t, w)
	// J = {(1,100),(1,200),(2,100),(2,200),(3,300)}
	if got := w.MustView("J").Cardinality(); got != 5 {
		t.Fatalf("|J| = %d, want 5", got)
	}
	// A = {(1,300),(2,300),(3,300)}
	rows := w.MustView("A").SortedRows()
	if len(rows) != 3 || rows[0].Tuple.String() != "(1, 300)" || rows[2].Tuple.String() != "(3, 300)" {
		t.Fatalf("A = %v", rows)
	}
	if err := w.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestGraphAccessors(t *testing.T) {
	w := newJoinWarehouse(t)
	if got := w.Children("J"); len(got) != 2 || got[0] != "R" || got[1] != "S" {
		t.Errorf("Children(J) = %v", got)
	}
	if got := w.Children("R"); got != nil {
		t.Errorf("Children(R) = %v", got)
	}
	if got := w.Parents("J"); len(got) != 1 || got[0] != "A" {
		t.Errorf("Parents(J) = %v", got)
	}
	if got := w.Parents("R"); len(got) != 1 || got[0] != "J" {
		t.Errorf("Parents(R) = %v", got)
	}
	names := w.ViewNames()
	if len(names) != 4 || names[0] != "R" || names[3] != "A" {
		t.Errorf("ViewNames = %v", names)
	}
	if w.View("nope") != nil {
		t.Errorf("View(nope) should be nil")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("MustView should panic")
		}
	}()
	w.MustView("nope")
}

// stage builds a delta for a base view.
func stage(t *testing.T, w *Warehouse, view string, changes []delta.Change) {
	t.Helper()
	d := delta.New(w.MustView(view).Schema())
	for _, c := range changes {
		d.Add(c.Tuple, c.Count)
	}
	if err := w.StageDelta(view, d); err != nil {
		t.Fatal(err)
	}
}

func TestOneWayStrategyMatchesRecompute(t *testing.T) {
	w := newJoinWarehouse(t)
	loadJoinData(t, w)
	// Changes: delete (2,10) from R, insert (4,20); insert (10,500) into S.
	stage(t, w, "R", []delta.Change{{Tuple: intRow(2, 10), Count: -1}, {Tuple: intRow(4, 20), Count: 1}})
	stage(t, w, "S", []delta.Change{{Tuple: intRow(10, 500), Count: 1}})

	// 1-way strategy for the whole VDAG, R first:
	// Comp(J,{R}); Inst(R); Comp(J,{S}); Inst(S); Comp(A,{J}); Inst(J); Inst(A)
	steps := []struct {
		comp string
		over []string
		inst string
	}{
		{comp: "J", over: []string{"R"}}, {inst: "R"},
		{comp: "J", over: []string{"S"}}, {inst: "S"},
		{comp: "A", over: []string{"J"}}, {inst: "J"}, {inst: "A"},
	}
	for _, s := range steps {
		if s.comp != "" {
			if _, err := w.Compute(s.comp, s.over); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := w.Install(s.inst); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	if pv := w.PendingViews(); len(pv) != 0 {
		t.Errorf("pending after strategy: %v", pv)
	}
}

func TestDualStageStrategyMatchesRecompute(t *testing.T) {
	w := newJoinWarehouse(t)
	loadJoinData(t, w)
	stage(t, w, "R", []delta.Change{{Tuple: intRow(1, 10), Count: -1}})
	stage(t, w, "S", []delta.Change{{Tuple: intRow(20, 300), Count: -1}, {Tuple: intRow(20, 77), Count: 1}})

	// Dual-stage: Comp(J,{R,S}); Comp(A,{J}); then install everything.
	rep, err := w.Compute("J", []string{"R", "S"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Terms != 3 {
		t.Errorf("Comp(J,{R,S}) evaluated %d terms, want 3", rep.Terms)
	}
	if _, err := w.Compute("A", []string{"J"}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"R", "S", "J", "A"} {
		if _, err := w.Install(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestBothOrdersAgree(t *testing.T) {
	build := func() *Warehouse {
		w := newJoinWarehouse(t)
		loadJoinData(t, w)
		stage(t, w, "R", []delta.Change{{Tuple: intRow(3, 20), Count: -1}, {Tuple: intRow(5, 10), Count: 1}})
		stage(t, w, "S", []delta.Change{{Tuple: intRow(10, 100), Count: -1}})
		return w
	}
	runRS := build()
	for _, step := range []string{"cJ.R", "iR", "cJ.S", "iS", "cA.J", "iJ", "iA"} {
		applyStep(t, runRS, step)
	}
	runSR := build()
	for _, step := range []string{"cJ.S", "iS", "cJ.R", "iR", "cA.J", "iJ", "iA"} {
		applyStep(t, runSR, step)
	}
	for _, v := range []string{"J", "A"} {
		a := runRS.MustView(v).SortedRows()
		b := runSR.MustView(v).SortedRows()
		if len(a) != len(b) {
			t.Fatalf("%s: %v vs %v", v, a, b)
		}
		for i := range a {
			if relation.CompareTuples(a[i].Tuple, b[i].Tuple) != 0 || a[i].Count != b[i].Count {
				t.Fatalf("%s row %d: %v vs %v", v, i, a[i], b[i])
			}
		}
	}
	if err := runRS.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	if err := runSR.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// applyStep interprets "cV.X" as Comp(V,{X}) and "iV" as Inst(V).
func applyStep(t *testing.T, w *Warehouse, step string) {
	t.Helper()
	switch step[0] {
	case 'c':
		var view, over string
		for i := 1; i < len(step); i++ {
			if step[i] == '.' {
				view, over = step[1:i], step[i+1:]
			}
		}
		if _, err := w.Compute(view, []string{over}); err != nil {
			t.Fatalf("step %s: %v", step, err)
		}
	case 'i':
		if _, err := w.Install(step[1:]); err != nil {
			t.Fatalf("step %s: %v", step, err)
		}
	}
}

func TestComputeErrors(t *testing.T) {
	w := newJoinWarehouse(t)
	loadJoinData(t, w)
	if _, err := w.Compute("R", []string{"S"}); err == nil {
		t.Errorf("Compute on base view accepted")
	}
	if _, err := w.Compute("nope", nil); err == nil {
		t.Errorf("Compute on unknown view accepted")
	}
	if _, err := w.Compute("J", []string{"A"}); err == nil {
		t.Errorf("Compute over non-referenced view accepted")
	}
	if _, err := w.Compute("J", nil); err == nil {
		t.Errorf("Compute over empty set accepted")
	}
	// Compute after finalize on aggregate view must fail.
	if _, err := w.Compute("A", []string{"J"}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.DeltaOf("A"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Compute("A", []string{"J"}); err == nil {
		t.Errorf("Compute after finalization accepted")
	}
}

func TestStageDeltaErrors(t *testing.T) {
	w := newJoinWarehouse(t)
	d := delta.New(schemaR)
	if err := w.StageDelta("J", d); err == nil {
		t.Errorf("StageDelta on derived view accepted")
	}
	if err := w.StageDelta("nope", d); err == nil {
		t.Errorf("StageDelta on unknown view accepted")
	}
	if err := w.StageDelta("S", d); err == nil {
		t.Errorf("StageDelta with wrong schema accepted")
	}
	if err := w.LoadBase("J", nil); err == nil {
		t.Errorf("LoadBase on derived accepted")
	}
	if err := w.LoadBase("nope", nil); err == nil {
		t.Errorf("LoadBase on unknown accepted")
	}
	if err := w.LoadBase("R", []relation.Tuple{intRow(1)}); err == nil {
		t.Errorf("LoadBase with wrong arity accepted")
	}
}

func TestWorkAccounting(t *testing.T) {
	w := newJoinWarehouse(t)
	loadJoinData(t, w)
	stage(t, w, "R", []delta.Change{{Tuple: intRow(9, 10), Count: 1}})
	// Comp(J,{R}) has one term: δR ⋈ S. Operands scanned: |δR| + |S| = 1 + 3.
	rep, err := w.Compute("J", []string{"R"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OperandTuples != 4 {
		t.Errorf("Comp(J,{R}) scanned %d tuples, want 4", rep.OperandTuples)
	}
	if rep.Terms != 1 {
		t.Errorf("terms = %d, want 1", rep.Terms)
	}
	// Install R: |δR| = 1 row.
	n, err := w.Install("R")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("Install(R) = %d rows, want 1", n)
	}
	// Comp(J,{S}): δS empty; one term: R' ⋈ δS → |R'| + |δS| = 4 + 0.
	rep, err = w.Compute("J", []string{"S"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OperandTuples != 4 {
		t.Errorf("Comp(J,{S}) scanned %d, want 4", rep.OperandTuples)
	}
}

func TestSkipEmptyDeltas(t *testing.T) {
	w := newJoinWarehouse(t)
	loadJoinData(t, w)
	w.SetOptions(Options{SkipEmptyDeltas: true})
	rep, err := w.Compute("J", []string{"S"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Skipped || rep.OperandTuples != 0 {
		t.Errorf("empty-delta Comp not skipped: %+v", rep)
	}
	if !w.Options().SkipEmptyDeltas {
		t.Errorf("Options not set")
	}
}

func TestCloneIndependence(t *testing.T) {
	w := newJoinWarehouse(t)
	loadJoinData(t, w)
	stage(t, w, "R", []delta.Change{{Tuple: intRow(1, 10), Count: -1}})
	cl := w.Clone()
	// Run the update on the clone only.
	for _, step := range []string{"cJ.R", "iR", "cJ.S", "iS", "cA.J", "iJ", "iA"} {
		applyStep(t, cl, step)
	}
	if w.MustView("R").Cardinality() != 3 {
		t.Errorf("original R mutated")
	}
	if cl.MustView("R").Cardinality() != 2 {
		t.Errorf("clone R not updated")
	}
	if len(w.PendingViews()) != 1 || w.PendingViews()[0] != "R" {
		t.Errorf("original pending = %v", w.PendingViews())
	}
	if err := cl.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaOfAndSizes(t *testing.T) {
	w := newJoinWarehouse(t)
	loadJoinData(t, w)
	stage(t, w, "R", []delta.Change{{Tuple: intRow(1, 10), Count: -1}, {Tuple: intRow(7, 20), Count: 1}})
	n, err := w.DeltaSize("R")
	if err != nil || n != 2 {
		t.Errorf("DeltaSize(R) = %d, %v", n, err)
	}
	if _, err := w.DeltaOf("nope"); err == nil {
		t.Errorf("DeltaOf unknown accepted")
	}
	if _, err := w.DeltaSize("nope"); err == nil {
		t.Errorf("DeltaSize unknown accepted")
	}
	// Aggregate delta: deleting R(1,10) removes group 1 (its only rows);
	// inserting R(7,20) adds group 7 with S(20,300).
	if _, err := w.Compute("J", []string{"R"}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Install("R"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Compute("J", []string{"S"}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Install("S"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Compute("A", []string{"J"}); err != nil {
		t.Fatal(err)
	}
	dA, err := w.DeltaOf("A")
	if err != nil {
		t.Fatal(err)
	}
	// Group 1 disappears (minus), group 7 appears (plus).
	if dA.PlusCount() != 1 || dA.MinusCount() != 1 {
		t.Errorf("δA = %v", dA.Sorted())
	}
	for _, v := range []string{"J", "A"} {
		if _, err := w.Install(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func TestInstallErrors(t *testing.T) {
	w := newJoinWarehouse(t)
	loadJoinData(t, w)
	if _, err := w.Install("nope"); err == nil {
		t.Errorf("Install unknown accepted")
	}
	// Deleting a row that does not exist must fail at install.
	stage(t, w, "R", []delta.Change{{Tuple: intRow(99, 99), Count: -1}})
	if _, err := w.Install("R"); err == nil {
		t.Errorf("install of impossible delete accepted")
	}
}

// TestRandomizedStrategiesMatchRecompute drives random change batches
// through both a 1-way and a dual-stage strategy and checks the final state
// against recomputation — the paper's core correctness claim (GMS93).
func TestRandomizedStrategiesMatchRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		w := newJoinWarehouse(t)
		// Random base data.
		var rRows, sRows []relation.Tuple
		for i := 0; i < 20; i++ {
			rRows = append(rRows, intRow(rng.Int63n(6), rng.Int63n(4)*10))
			sRows = append(sRows, intRow(rng.Int63n(4)*10, rng.Int63n(5)*100))
		}
		if err := w.LoadBase("R", rRows); err != nil {
			t.Fatal(err)
		}
		if err := w.LoadBase("S", sRows); err != nil {
			t.Fatal(err)
		}
		if err := w.RefreshAll(); err != nil {
			t.Fatal(err)
		}
		// Random change batch: delete some existing rows, insert new ones.
		for _, base := range []string{"R", "S"} {
			d := delta.New(w.MustView(base).Schema())
			rows := w.MustView(base).SortedRows()
			for _, r := range rows {
				if rng.Intn(3) == 0 {
					d.Add(r.Tuple, -1)
				}
			}
			for i := 0; i < rng.Intn(5); i++ {
				d.Add(intRow(rng.Int63n(6), rng.Int63n(4)*10), 1)
			}
			if err := w.StageDelta(base, d); err != nil {
				t.Fatal(err)
			}
		}
		oneWay := w.Clone()
		for _, step := range []string{"cJ.R", "iR", "cJ.S", "iS", "cA.J", "iJ", "iA"} {
			applyStep(t, oneWay, step)
		}
		if err := oneWay.VerifyAll(); err != nil {
			t.Fatalf("trial %d 1-way: %v", trial, err)
		}
		dual := w.Clone()
		if _, err := dual.Compute("J", []string{"R", "S"}); err != nil {
			t.Fatal(err)
		}
		if _, err := dual.Compute("A", []string{"J"}); err != nil {
			t.Fatal(err)
		}
		for _, v := range []string{"R", "S", "J", "A"} {
			if _, err := dual.Install(v); err != nil {
				t.Fatal(err)
			}
		}
		if err := dual.VerifyAll(); err != nil {
			t.Fatalf("trial %d dual: %v", trial, err)
		}
		// Both strategies must agree with each other too.
		for _, v := range []string{"J", "A"} {
			a, b := oneWay.MustView(v).SortedRows(), dual.MustView(v).SortedRows()
			if len(a) != len(b) {
				t.Fatalf("trial %d: %s disagrees: %d vs %d rows", trial, v, len(a), len(b))
			}
			for i := range a {
				if relation.CompareTuples(a[i].Tuple, b[i].Tuple) != 0 || a[i].Count != b[i].Count {
					t.Fatalf("trial %d: %s row %d: %v vs %v", trial, v, i, a[i], b[i])
				}
			}
		}
	}
}

// TestCloneSharesTheStagedBatch: Clone hands a base view's staged delta to the
// clone without copying it, and neither side sees the other's later changes —
// more staged on either, or an install on either.
func TestCloneSharesTheStagedBatch(t *testing.T) {
	w := newJoinWarehouse(t)
	loadJoinData(t, w)
	stage(t, w, "R", []delta.Change{{Tuple: intRow(1, 10), Count: -1}, {Tuple: intRow(7, 20), Count: 1}})
	digest := func(w *Warehouse) uint64 {
		d, err := w.DeltaOf("R")
		if err != nil {
			t.Fatal(err)
		}
		return d.Digest()
	}
	staged := digest(w)

	cl := w.Clone()
	if a, _ := w.DeltaOf("R"); a != mustDelta(t, cl, "R") {
		t.Fatalf("Clone copied the staged delta")
	}
	stage(t, cl, "R", []delta.Change{{Tuple: intRow(8, 20), Count: 1}})
	if digest(w) != staged || digest(cl) == staged {
		t.Errorf("staging on the clone: source digest %x (want %x), clone %x", digest(w), staged, digest(cl))
	}

	cl2 := w.Clone()
	stage(t, w, "R", []delta.Change{{Tuple: intRow(9, 20), Count: 1}})
	if digest(cl2) != staged || digest(w) == staged {
		t.Errorf("staging on the source: clone digest %x (want %x)", digest(cl2), staged)
	}

	cl3 := cl2.Clone()
	if _, err := cl3.Install("R"); err != nil {
		t.Fatal(err)
	}
	if digest(cl2) != staged || !cl2.MustView("R").HasPending() || cl2.MustView("R").Cardinality() != 3 {
		t.Errorf("an install on a clone reached its source")
	}
	for _, step := range []string{"cJ.R", "iR", "cJ.S", "iS", "cA.J", "iJ", "iA"} {
		applyStep(t, cl2, step)
	}
	if err := cl2.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

func mustDelta(t *testing.T, w *Warehouse, view string) *delta.Delta {
	t.Helper()
	d, err := w.DeltaOf(view)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
