package warehouse

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/journal"
)

// TestFloatBatchFoldsInOneOrder is the determinism gate of the sealed delta:
// one 200-row batch of floats of mixed magnitude, staged in a shuffled
// arrival order into each of 30 fresh warehouses, folds to bit-identical SUM
// and AVG outputs and step digests in every one of them, on a follower that
// replays the first one's journal, and through Restore of that journal (both
// of which check the journaled step digests themselves) — in sequential and
// in DAG mode. A float sum depends on the order it adds in, so this holds
// only if every replica reads the batch in one order.
func TestFloatBatchFoldsInOneOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	batch := make([]Tuple, 200)
	for i := range batch {
		mag := math.Pow(10, float64(rng.Intn(17)-8))
		batch[i] = Tuple{Int(int64(i % 7)), Float((rng.Float64() - 0.5) * mag)}
	}
	fixture := func() *Warehouse {
		w := New()
		w.MustDefineBase("T", Schema{{Name: "g", Kind: KindInt}, {Name: "x", Kind: KindFloat}})
		w.MustDefineViewSQL("V", "SELECT g, SUM(x) AS s, AVG(x) AS a FROM T GROUP BY g")
		if err := w.Load("T", []Tuple{{Int(0), Float(0.1)}, {Int(1), Float(1e9 / 3)}, {Int(2), Float(-2.5e-7)}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Refresh(); err != nil {
			t.Fatal(err)
		}
		return w
	}
	// view renders V's rows bit for bit.
	view := func(w *Warehouse) string {
		rows, err := w.Query("SELECT g, s, a FROM V ORDER BY g")
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range rows {
			fmt.Fprintf(&b, "(%d %016x %016x) ", r[0].Int(), math.Float64bits(r[1].Float()), math.Float64bits(r[2].Float()))
		}
		return b.String()
	}
	// outcome is view and the window's step digests.
	outcome := func(w *Warehouse, rep WindowReport) string {
		out := view(w)
		for _, s := range rep.Report.Steps {
			out += fmt.Sprintf("%s=%016x ", s.Expr.Key(), s.Digest)
		}
		return out
	}
	for _, mode := range []Mode{ModeSequential, ModeDAG} {
		t.Run(string(mode), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wh.journal")
			var want, wantView string
			for run := 0; run < 30; run++ {
				w := fixture()
				d, err := w.NewDelta("T")
				if err != nil {
					t.Fatal(err)
				}
				for _, i := range rng.Perm(len(batch)) {
					d.Add(batch[i], 1)
				}
				if err := w.StageDelta("T", d); err != nil {
					t.Fatal(err)
				}
				opts := WindowOptions{Mode: mode, Workers: 4}
				if run == 0 {
					if opts.Journal, err = OpenJournal(path); err != nil {
						t.Fatal(err)
					}
				}
				rep, err := w.RunWindowOpts(opts)
				if err != nil {
					t.Fatal(err)
				}
				if opts.Journal != nil {
					if err := opts.Journal.Close(); err != nil {
						t.Fatal(err)
					}
				}
				got := outcome(w, rep)
				if run == 0 {
					want, wantView = got, view(w)
					if !slices.ContainsFunc(rep.Report.Steps, func(s StepReport) bool { return s.Expr.Key() == "I:V" && s.Digest != 0 }) {
						t.Fatalf("the install of V journals no digest: %s", got)
					}
				} else if got != want {
					t.Fatalf("run %d folds the batch to\n%s\nrun 0 to\n%s", run, got, want)
				}
			}

			image, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lg, err := journal.ReadLog(bytes.NewReader(image))
			if err != nil || lg.CommittedCount() != 1 {
				t.Fatalf("journal reads as %d committed windows: %v", lg.CommittedCount(), err)
			}
			follower := fixture()
			rep, err := follower.ApplyWindow(&lg.Windows[0])
			if err != nil {
				t.Fatal(err)
			}
			if got := outcome(follower, rep); got != want {
				t.Fatalf("the follower folds the batch to\n%s\nthe leader to\n%s", got, want)
			}

			restored := fixture()
			j, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if err := restored.Restore(j); err != nil {
				t.Fatal(err)
			}
			if got := view(restored); got != wantView {
				t.Fatalf("Restore folds the batch to\n%s\nthe leader to\n%s", got, wantView)
			}
		})
	}
}
