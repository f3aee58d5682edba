package recovery

import (
	"fmt"
	"os"
	"path/filepath"
)

// SpillDir names the spill directory of the window with the given journal
// sequence number: <journal>.spill/w<seq>, next to the journal, so what a
// crashed window leaves behind is attributable and sweepable. Empty for a
// journal not backed by a file path (Options.SpillDir then falls back to a
// per-run temp directory).
func SpillDir(journalPath string, seq int) string {
	if journalPath == "" {
		return ""
	}
	return filepath.Join(journalPath+".spill", fmt.Sprintf("w%d", seq))
}

// SweepSpillDirs removes every per-window spill directory under the journal's
// spill root and reports how many it removed. Committed and aborted windows
// clean up after themselves; anything found here was left by a crashed
// process. Recovery never reuses a crashed run's spill files — it re-executes
// from the journal — so sweeping before a window runs is always safe.
func SweepSpillDirs(journalPath string) int {
	root := journalPath + ".spill"
	ents, err := os.ReadDir(root)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if os.RemoveAll(filepath.Join(root, e.Name())) == nil {
			n++
		}
	}
	return n
}
