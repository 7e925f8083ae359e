package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"pneuma/internal/value"
)

// ReadCSV parses CSV from r into a Table named name. The first record is
// the header. Column types are inferred from the data: each cell is parsed
// with value.Infer and per-column kinds are unified (int+float→float,
// numeric+string→string). After inference every cell is coerced to the
// column kind so a column is homogeneous, and written through a
// ColumnBuilder.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("read csv %s: %w", name, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("read csv %s: empty input", name)
	}
	header := records[0]
	ncols := len(header)
	kinds := make([]value.Kind, ncols)
	raw := make([]value.Value, 0, (len(records)-1)*ncols)
	for li, rec := range records[1:] {
		if len(rec) != ncols {
			return nil, fmt.Errorf("read csv %s: line %d has %d fields, header has %d",
				name, li+2, len(rec), ncols)
		}
		for c, cell := range rec {
			v := value.Infer(cell)
			raw = append(raw, v)
			kinds[c] = value.UnifyKinds(kinds[c], v.Kind())
		}
	}
	schema := Schema{Name: name}
	cols := make([]ColumnBuilder, ncols)
	for c, h := range header {
		k := kinds[c]
		if k == value.KindNull {
			k = value.KindString // all-null column defaults to varchar
		}
		schema.Columns = append(schema.Columns, Column{Name: strings.TrimSpace(h), Type: k})
		cols[c].Grow(len(records) - 1)
	}
	for i, v := range raw {
		c := i % ncols
		coerced, ok := value.CoerceKind(v, schema.Columns[c].Type)
		if !ok {
			coerced = value.Null()
		}
		cols[c].Append(coerced)
	}
	return FromColumns(schema, cols), nil
}

// ReadCSVFile loads path; the table is named after the file's base name
// without extension.
func ReadCSVFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base := filepath.Base(path)
	name := strings.TrimSuffix(base, filepath.Ext(base))
	return ReadCSV(name, f)
}

// WriteCSV serializes the table to w, header first.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Schema.ColumnNames()); err != nil {
		return err
	}
	rec := make([]string, t.NumCols())
	for r := range t.n {
		for c := range rec {
			rec[c] = t.At(r, c).String()
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the table to path, creating parent directories.
func (t *Table) WriteCSVFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}

// LoadDir reads every *.csv file in dir into a map keyed by table name.
func LoadDir(dir string) (map[string]*Table, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Table)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".csv") {
			continue
		}
		t, err := ReadCSVFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[t.Schema.Name] = t
	}
	return out, nil
}
