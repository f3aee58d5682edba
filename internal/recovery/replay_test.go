package recovery

// Replay is the follower's path: a fully committed shipped window re-executes
// on a replica and must reproduce the leader's digests exactly — and any
// discrepancy (wrong replica state, tampered batch, tampered step record,
// tampered commit) must be a hard error, not silent divergence.

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/journal"
)

// shipWindow runs one journaled window on the fixture and returns the
// committed WindowLog (as shipped) plus the leader's post-window bags.
func shipWindow(t *testing.T, mode exec.Mode) (*journal.WindowLog, map[string]string) {
	t.Helper()
	w, s := newFixture(t)
	var buf bytes.Buffer
	res, err := Run(w, s, Options{
		Journal: journal.NewWriter(&buf), Seq: 1, Mode: mode, Workers: 2, Validate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	lg := readLog(t, &buf)
	if len(lg.Windows) != 1 || !lg.Windows[0].Committed() {
		t.Fatalf("expected one committed window, got %+v", lg)
	}
	return &lg.Windows[0], bags(t, res.Core)
}

func TestReplayReproducesLeaderState(t *testing.T) {
	for _, mode := range []exec.Mode{exec.ModeSequential, exec.ModeStaged, exec.ModeDAG} {
		wl, leaderBags := shipWindow(t, mode)
		replica := buildPristine(t) // same sources, no staged batch
		res, err := Replay(replica, wl, Options{})
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if !res.Replayed || res.Core == nil {
			t.Fatalf("mode %s: result not marked replayed: %+v", mode, res)
		}
		sameBags(t, "replayed "+string(mode), leaderBags, bags(t, res.Core))
		if res.Report.TotalWork() != wl.Commit.TotalWork {
			t.Fatalf("mode %s: work %d vs committed %d", mode, res.Report.TotalWork(), wl.Commit.TotalWork)
		}
	}
}

func TestReplayRejectsDivergedReplica(t *testing.T) {
	wl, _ := shipWindow(t, exec.ModeSequential)
	replica, _ := newFixture(t) // has the batch staged: different pre-state
	if _, err := Replay(replica, wl, Options{}); err == nil {
		t.Fatal("replay against a diverged replica state succeeded")
	}
}

func TestReplayRejectsTamperedWindow(t *testing.T) {
	t.Run("batch", func(t *testing.T) {
		wl, _ := shipWindow(t, exec.ModeSequential)
		wl.Begin.Batch[0].Rows[0].Count++ // corrupt one shipped change row
		if _, err := Replay(buildPristine(t), wl, Options{}); err == nil {
			t.Fatal("tampered change batch replayed")
		}
	})
	t.Run("step-digest", func(t *testing.T) {
		wl, _ := shipWindow(t, exec.ModeSequential)
		for i := range wl.Steps {
			if !wl.Steps[i].Skipped && wl.Steps[i].Digest != 0 {
				wl.Steps[i].Digest ^= 1
				break
			}
		}
		if _, err := Replay(buildPristine(t), wl, Options{}); err == nil {
			t.Fatal("tampered step digest replayed")
		}
	})
	t.Run("missing-step", func(t *testing.T) {
		wl, _ := shipWindow(t, exec.ModeSequential)
		wl.Steps = wl.Steps[:len(wl.Steps)-1]
		if _, err := Replay(buildPristine(t), wl, Options{}); err == nil {
			t.Fatal("committed window with a missing step record replayed")
		}
	})
	t.Run("commit-work", func(t *testing.T) {
		wl, _ := shipWindow(t, exec.ModeSequential)
		wl.Commit.TotalWork++
		if _, err := Replay(buildPristine(t), wl, Options{}); err == nil {
			t.Fatal("tampered commit total work replayed")
		}
	})
}

func TestReplayRequiresCommittedWindow(t *testing.T) {
	if _, err := Replay(buildPristine(t), nil, Options{}); err == nil {
		t.Fatal("nil window replayed")
	}
	wl, _ := shipWindow(t, exec.ModeSequential)
	wl.Commit = nil
	if _, err := Replay(buildPristine(t), wl, Options{}); err == nil {
		t.Fatal("uncommitted window replayed")
	}
}

func TestReplayRejectsAbortedWindow(t *testing.T) {
	wl, _ := shipWindow(t, exec.ModeSequential)
	wl.Commit = nil
	wl.Abort = &journal.AbortRecord{Reason: "deadline"}
	if _, err := Replay(buildPristine(t), wl, Options{}); err == nil {
		t.Fatal("aborted window replayed")
	}
}

// TestReplayRefusesProbeWorkJournal: a window journaled by an engine whose
// Work figures counted index probes (begin-record flag bit 2, which still
// decodes) is refused as a whole, with that reason, before any step runs —
// not as a work mismatch at its first Comp.
func TestReplayRefusesProbeWorkJournal(t *testing.T) {
	wl, _ := shipWindow(t, exec.ModeSequential)
	wl.Begin.ProbeWork = true
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf)
	if err := jw.Begin(wl.Begin); err != nil {
		t.Fatal(err)
	}
	for _, sr := range wl.Steps {
		if err := jw.Step(sr); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Commit(*wl.Commit); err != nil {
		t.Fatal(err)
	}
	lg := readLog(t, &buf)
	if len(lg.Windows) != 1 || !lg.Windows[0].Begin.ProbeWork {
		t.Fatalf("the flag did not survive the journal: %+v", lg.Windows)
	}
	_, err := Replay(buildPristine(t), &lg.Windows[0], Options{})
	if err == nil || !strings.Contains(err.Error(), "count index probes") || strings.Contains(err.Error(), "diverged") {
		t.Fatalf("replay of a probe-work journal: %v", err)
	}
}
