package tpcd

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/csvio"
)

// WriteFiles builds the warehouse cfg describes and writes it to dir: each
// base view as <view>.csv; with p > 0 the UniformDecrease(p) batch as
// <view>.delta.csv for every view it changes; and tpcd.whs, the whshell
// statements that define the same warehouse over those files — CREATE BASE
// for the base views, CREATE VIEW for the summary views from the SQL that
// defines them here, LOAD of each file, REFRESH, and a DELTA for each batch
// file. The script names the files as filepath.Join(dir, …) does, so a
// relative dir is relative to where the script runs. WriteFiles returns the
// paths it wrote, the script last.
func WriteFiles(cfg Config, p float64, dir string) ([]string, error) {
	tw, err := NewWarehouse(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var script strings.Builder
	fmt.Fprintf(&script, "-- TPC-D warehouse at SF %g, seed %d\n", cfg.SF, cfg.Seed)
	schemas := Schemas()
	for _, view := range BaseViews {
		fmt.Fprintf(&script, "CREATE BASE %s (%s);\n", view, schemas[view])
	}
	for _, view := range tw.W.ViewNames() {
		if sql := viewSQL[view]; sql != "" {
			fmt.Fprintf(&script, "CREATE VIEW %s AS\n%s;\n", view, sql)
		}
	}
	var paths []string
	write := func(path string, fill func(f *os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fill(f); err != nil {
			f.Close()
			return err
		}
		paths = append(paths, path)
		return f.Close()
	}
	for _, view := range BaseViews {
		v := tw.W.MustView(view)
		path := filepath.Join(dir, view+".csv")
		if err := write(path, func(f *os.File) error { return csvio.WriteRows(f, v.Schema(), v) }); err != nil {
			return nil, err
		}
		fmt.Fprintf(&script, "LOAD %s FROM '%s';\n", view, path)
	}
	script.WriteString("REFRESH;\n")
	if p > 0 {
		if _, err := tw.StageChanges(UniformDecrease(p)); err != nil {
			return nil, err
		}
		for _, view := range BaseViews {
			d, err := tw.W.DeltaOf(view)
			if err != nil {
				return nil, err
			}
			if d.IsEmpty() {
				continue
			}
			path := filepath.Join(dir, view+".delta.csv")
			if err := write(path, func(f *os.File) error { return csvio.WriteDelta(f, d) }); err != nil {
				return nil, err
			}
			fmt.Fprintf(&script, "DELTA %s FROM '%s';\n", view, path)
		}
	}
	path := filepath.Join(dir, "tpcd.whs")
	if err := os.WriteFile(path, []byte(script.String()), 0o644); err != nil {
		return nil, err
	}
	return append(paths, path), nil
}
