// Package csvio loads and dumps warehouse data as CSV: base-view bulk
// loads, view exports, and change batches (with a signed __count column).
// Values are parsed according to the view's schema; dates use YYYY-MM-DD.
package csvio

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/delta"
	"repro/internal/relation"
)

// countColumn is the extra column of change-batch files: the signed
// multiplicity of each row (+insert, −delete).
const countColumn = "__count"

// parseValue converts one CSV field per the column kind. Empty fields are
// NULL.
func parseValue(field string, kind relation.Kind) (relation.Value, error) {
	if field == "" {
		return relation.Null, nil
	}
	switch kind {
	case relation.KindInt:
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return relation.Null, fmt.Errorf("csvio: bad integer %q: %w", field, err)
		}
		return relation.NewInt(v), nil
	case relation.KindFloat:
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return relation.Null, fmt.Errorf("csvio: bad float %q: %w", field, err)
		}
		return relation.NewFloat(v), nil
	case relation.KindString:
		return relation.NewString(field), nil
	case relation.KindDate:
		return relation.DateFromString(field)
	case relation.KindBool:
		v, err := strconv.ParseBool(field)
		if err != nil {
			return relation.Null, fmt.Errorf("csvio: bad boolean %q: %w", field, err)
		}
		return relation.NewBool(v), nil
	default:
		return relation.Null, fmt.Errorf("csvio: unsupported kind %v", kind)
	}
}

// header validates the CSV header against the schema, returning the column
// permutation (CSV position → schema index) and whether a trailing
// __count column is present.
func header(record []string, schema relation.Schema, allowCount bool) ([]int, bool, error) {
	hasCount := false
	cols := record
	if allowCount && len(record) > 0 && record[len(record)-1] == countColumn {
		hasCount = true
		cols = record[:len(record)-1]
	}
	if len(cols) != len(schema) {
		return nil, false, fmt.Errorf("csvio: header has %d columns, schema has %d", len(cols), len(schema))
	}
	perm := make([]int, len(cols))
	seen := make(map[int]bool)
	for i, name := range cols {
		idx := schema.ColumnIndex(name)
		if idx < 0 {
			return nil, false, fmt.Errorf("csvio: unknown column %q (schema: %v)", name, schema.Names())
		}
		if seen[idx] {
			return nil, false, fmt.Errorf("csvio: duplicate column %q", name)
		}
		seen[idx] = true
		perm[i] = idx
	}
	return perm, hasCount, nil
}

// ReadRows parses CSV rows (header required) for the given schema.
func ReadRows(r io.Reader, schema relation.Schema) ([]relation.Tuple, error) {
	cr := csv.NewReader(r)
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("csvio: reading header: %w", err)
	}
	perm, _, err := header(head, schema, false)
	if err != nil {
		return nil, err
	}
	var out []relation.Tuple
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("csvio: line %d: %w", line, err)
		}
		tup := make(relation.Tuple, len(schema))
		for i, field := range rec {
			v, err := parseValue(field, schema[perm[i]].Kind)
			if err != nil {
				return nil, fmt.Errorf("csvio: line %d column %q: %w", line, head[i], err)
			}
			tup[perm[i]] = v
		}
		out = append(out, tup)
	}
}

// ReadDelta parses a change batch: CSV with the schema's columns plus a
// trailing signed __count column (absent count means +1).
func ReadDelta(r io.Reader, schema relation.Schema) (*delta.Delta, error) {
	cr := csv.NewReader(r)
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("csvio: reading header: %w", err)
	}
	perm, hasCount, err := header(head, schema, true)
	if err != nil {
		return nil, err
	}
	d := delta.New(schema)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return d, d.Seal()
		}
		if err != nil {
			return nil, fmt.Errorf("csvio: line %d: %w", line, err)
		}
		count := int64(1)
		fields := rec
		if hasCount {
			if len(rec) != len(schema)+1 {
				return nil, fmt.Errorf("csvio: line %d: %d fields, want %d", line, len(rec), len(schema)+1)
			}
			count, err = strconv.ParseInt(rec[len(rec)-1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("csvio: line %d: bad count %q", line, rec[len(rec)-1])
			}
			fields = rec[:len(rec)-1]
		}
		tup := make(relation.Tuple, len(schema))
		for i, field := range fields {
			v, err := parseValue(field, schema[perm[i]].Kind)
			if err != nil {
				return nil, fmt.Errorf("csvio: line %d column %q: %w", line, head[i], err)
			}
			tup[perm[i]] = v
		}
		d.Add(tup, count)
	}
}

// rowSource is anything that can be dumped: a view or a delta.
type rowSource interface {
	Scan(func(relation.Tuple, int64) bool)
}

// WriteRows dumps rows (duplicates expanded) with a header.
func WriteRows(w io.Writer, schema relation.Schema, src rowSource) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(schema.Names()); err != nil {
		return err
	}
	var werr error
	src.Scan(func(tup relation.Tuple, count int64) bool {
		rec := make([]string, len(tup))
		for i, v := range tup {
			if v.IsNull() {
				rec[i] = ""
			} else {
				rec[i] = v.String()
			}
		}
		for c := int64(0); c < count; c++ {
			if werr = cw.Write(rec); werr != nil {
				return false
			}
		}
		return true
	})
	if werr != nil {
		return werr
	}
	cw.Flush()
	return cw.Error()
}

// WriteDelta dumps a change batch with the signed __count column.
func WriteDelta(w io.Writer, d *delta.Delta) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(append(append([]string(nil), d.Schema().Names()...), countColumn)); err != nil {
		return err
	}
	for _, ch := range d.Sorted() {
		rec := make([]string, 0, len(ch.Tuple)+1)
		for _, v := range ch.Tuple {
			if v.IsNull() {
				rec = append(rec, "")
			} else {
				rec = append(rec, v.String())
			}
		}
		rec = append(rec, strconv.FormatInt(ch.Count, 10))
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
