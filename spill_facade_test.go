package warehouse

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// newBigRetail is the retail fixture scaled until the hash build of the
// sales outgrows a 4 KiB window budget, entirely through the public API.
// The join reads them through SALES_LINES, a summary view with one group
// per sale: a plain table's state is read through its resident join index
// and builds nothing, while an aggregate store has no index and is scanned
// and hashed by every term that joins it.
func newBigRetail(t *testing.T) *Warehouse {
	t.Helper()
	w := New()
	w.MustDefineBase("STORES", Schema{
		{Name: "store_id", Kind: KindInt},
		{Name: "region", Kind: KindString},
	})
	w.MustDefineBase("SALES", Schema{
		{Name: "sale_id", Kind: KindInt},
		{Name: "store_id", Kind: KindInt},
		{Name: "amount", Kind: KindFloat},
	})
	w.MustDefineViewSQL("SALES_LINES", `
		SELECT sale_id, store_id, SUM(amount) AS amount
		FROM SALES GROUP BY sale_id, store_id`)
	w.MustDefineViewSQL("SALES_BY_STORE", `
		SELECT s.sale_id, s.amount, st.region
		FROM SALES_LINES s, STORES st
		WHERE s.store_id = st.store_id`)
	w.MustDefineViewSQL("REGION_TOTALS", `
		SELECT region, SUM(amount) AS total, COUNT(*) AS n
		FROM SALES_BY_STORE GROUP BY region`)
	regions := []string{"west", "east", "north", "south"}
	var stores, sales []Tuple
	for i := 0; i < 20; i++ {
		stores = append(stores, Tuple{Int(int64(i)), String(regions[i%len(regions)])})
	}
	for i := 0; i < 300; i++ {
		sales = append(sales, Tuple{Int(int64(i)), Int(int64(i % 20)), Float(float64(i) / 2)})
	}
	if err := w.Load("STORES", stores); err != nil {
		t.Fatal(err)
	}
	if err := w.Load("SALES", sales); err != nil {
		t.Fatal(err)
	}
	if err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	return w
}

// stageBigRetail stages changes to BOTH bases, so some maintenance term must
// probe the full 300-group SALES_LINES state — the build that spills under
// budget.
func stageBigRetail(t *testing.T, w *Warehouse) {
	t.Helper()
	ds, err := w.NewDelta("SALES")
	if err != nil {
		t.Fatal(err)
	}
	ds.Add(Tuple{Int(10_000), Int(3), Float(50)}, 1)
	ds.Add(Tuple{Int(0), Int(0), Float(0)}, -1)
	if err := w.StageDelta("SALES", ds); err != nil {
		t.Fatal(err)
	}
	dst, err := w.NewDelta("STORES")
	if err != nil {
		t.Fatal(err)
	}
	dst.Add(Tuple{Int(100), String("islands")}, 1)
	if err := w.StageDelta("STORES", dst); err != nil {
		t.Fatal(err)
	}
}

// TestWindowCountersReportSpilling: a budgeted window spills, says so in its
// counters and String() summary, and produces exactly the unbudgeted result;
// resetting the budget to 0 turns the machinery back off.
func TestWindowCountersReportSpilling(t *testing.T) {
	ref := newBigRetail(t)
	stageBigRetail(t, ref)
	if _, err := ref.RunWindow(MinWorkPlanner); err != nil {
		t.Fatal(err)
	}

	w := newBigRetail(t)
	w.SetMemoryBudget(4096)
	if got := w.Internal().Options().MemoryBudgetBytes; got != 4096 {
		t.Fatalf("MemoryBudgetBytes = %d", got)
	}
	stageBigRetail(t, w)
	rep, err := w.RunWindow(MinWorkPlanner)
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Counters()
	if c.SpillCount == 0 || c.SpilledBytes == 0 || c.SpillReReadBytes == 0 || c.PeakReservedBytes == 0 {
		t.Fatalf("budgeted window reported no spilling: %+v", c)
	}
	if s := rep.String(); !strings.Contains(s, "spills=") {
		t.Fatalf("window summary hides spilling: %s", s)
	}
	for _, v := range ref.Views() {
		if !sameRows(rowsOf(t, ref, v), rowsOf(t, w, v)) {
			t.Fatalf("%s differs from the unbudgeted window's result", v)
		}
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}

	// Budget off again: the next window runs fully resident.
	w.SetMemoryBudget(0)
	d2, err := w.NewDelta("SALES")
	if err != nil {
		t.Fatal(err)
	}
	d2.Add(Tuple{Int(10_001), Int(5), Float(9)}, 1)
	if err := w.StageDelta("SALES", d2); err != nil {
		t.Fatal(err)
	}
	rep2, err := w.RunWindow(MinWorkPlanner)
	if err != nil {
		t.Fatal(err)
	}
	if c2 := rep2.Counters(); c2.SpillCount != 0 {
		t.Fatalf("budget off, still spilled: %+v", c2)
	}
}

// TestCrashMidSpillSweptOnReopen: a crash while spilling leaves the
// journal in-flight AND the per-window spill directory on disk; reopening
// the journal sweeps the stale directory (reported via SpillDirsSwept) and
// Recover completes the window with the right answer.
func TestCrashMidSpillSweptOnReopen(t *testing.T) {
	ref := newBigRetail(t)
	stageBigRetail(t, ref)
	if _, err := ref.RunWindow(MinWorkPlanner); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "wh.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.SpillDirsSwept() != 0 {
		t.Fatalf("fresh journal swept %d spill dirs", j.SpillDirsSwept())
	}
	w := newBigRetail(t)
	w.SetMemoryBudget(4096)
	stageBigRetail(t, w)
	inj := NewFaultInjector(5)
	inj.CrashAt("spill-write", 1)
	if _, err := w.RunWindowOpts(WindowOptions{Journal: j, Faults: inj}); err == nil {
		t.Fatal("crash mid-spill did not fail the window")
	}
	spillDir := path + ".spill"
	ents, err := os.ReadDir(spillDir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("crashed window left no spill debris under %s (err=%v)", spillDir, err)
	}
	if !j.NeedsRecovery() {
		t.Fatal("crashed journal handle does not demand recovery")
	}
	j.Close()

	// Restart: reopen sweeps the debris and recovery replays the window.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.SpillDirsSwept() == 0 {
		t.Fatal("reopen swept no stale spill directories")
	}
	if ents, err := os.ReadDir(spillDir); err == nil && len(ents) != 0 {
		t.Fatalf("%d stale spill dirs survived the sweep", len(ents))
	}
	if !j2.NeedsRecovery() {
		t.Fatal("reopened journal lost the in-flight window")
	}
	w2 := newBigRetail(t)
	w2.SetMemoryBudget(4096) // bounded recovery of a bounded window
	rep, err := w2.Recover(j2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Recovered || rep.SpillDirsSwept == 0 {
		t.Fatalf("recovery report: %+v", rep)
	}
	for _, v := range ref.Views() {
		if !sameRows(rowsOf(t, ref, v), rowsOf(t, w2, v)) {
			t.Fatalf("%s differs from the uninterrupted window's result", v)
		}
	}
	if err := w2.Verify(); err != nil {
		t.Fatal(err)
	}
}
