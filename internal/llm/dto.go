package llm

import (
	"pneuma/internal/docs"
	"pneuma/internal/table"
)

// The DTOs in this file are the machine-readable halves of the prompts the
// agents send. They are marshalled into Request.Payload (and therefore
// token-counted as part of the rendered prompt) and parsed by SimModel's
// skills. A hosted model would read the same JSON out of the prompt text.

// ColumnInfo describes one column for a prompt.
type ColumnInfo struct {
	Name        string   `json:"name"`
	Type        string   `json:"type"`
	Description string   `json:"description,omitempty"`
	Unit        string   `json:"unit,omitempty"`
	Samples     []string `json:"samples,omitempty"`
	Min         string   `json:"min,omitempty"`
	Max         string   `json:"max,omitempty"`
}

// TableInfo describes one table for a prompt.
type TableInfo struct {
	Name        string       `json:"name"`
	Description string       `json:"description,omitempty"`
	NumRows     int          `json:"num_rows"`
	Columns     []ColumnInfo `json:"columns"`
}

// DocInfo is one retrieved document for a prompt.
type DocInfo struct {
	ID      string     `json:"id"`
	Kind    string     `json:"kind"`
	Title   string     `json:"title"`
	Source  string     `json:"source"`
	Snippet string     `json:"snippet,omitempty"`
	Table   *TableInfo `json:"table,omitempty"`
}

// StateInfo is the (T, Q) shared state as shown to the model and user.
type StateInfo struct {
	Tables       []TableInfo `json:"tables"`
	Queries      []string    `json:"queries"`
	Materialized bool        `json:"materialized"`
	// Specs are the raw target-table specifications, including planned
	// transforms — what state comparisons must be made against.
	Specs []TableSpec `json:"specs,omitempty"`
	// ResultPreview is the rendered head of the last executed query result.
	ResultPreview string `json:"result_preview,omitempty"`
}

// FilterSpec is one filter constraint of an information need.
type FilterSpec struct {
	// ColumnPhrase is how a user would describe the column ("the site").
	ColumnPhrase string `json:"column_phrase,omitempty"`
	// Column is the resolved physical column (ground truth in NeedSpec,
	// resolved at runtime in intents).
	Column string `json:"column,omitempty"`
	// Value is the literal filter value ("Malta").
	Value string `json:"value"`
}

// NeedSpec is a structured latent information need: the ground truth behind
// one benchmark question. The user simulator reveals it gradually; the
// oracle computes its answer directly from the data.
type NeedSpec struct {
	// Topic is the broad subject for the opening prompt ("historical data
	// from the Maltese region").
	Topic string `json:"topic"`
	// MeasurePhrase is the user-language description of the measure
	// ("Potassium in ppm").
	MeasurePhrase string `json:"measure_phrase"`
	// MeasureColumn is the ground-truth physical column ("k_ppm").
	MeasureColumn string `json:"measure_column"`
	// Tables lists the ground-truth table(s) involved.
	Tables []string `json:"tables"`
	// JoinTable/JoinKey describe a required join for multi-table needs.
	JoinTable string `json:"join_table,omitempty"`
	JoinKey   string `json:"join_key,omitempty"`
	// Aggregate is AVG, SUM, COUNT, MIN, MAX, MEDIAN or STDDEV.
	Aggregate string `json:"aggregate"`
	// Filters are the constraint values.
	Filters []FilterSpec `json:"filters,omitempty"`
	// YearFrom/YearTo bound a temporal column when non-zero.
	YearFrom int `json:"year_from,omitempty"`
	YearTo   int `json:"year_to,omitempty"`
	// TimeColumn is the temporal column the range applies to.
	TimeColumn string `json:"time_column,omitempty"`
	// FirstLast asks for the average of the first and last recorded values.
	FirstLast bool `json:"first_last,omitempty"`
	// Interpolate asks for linear interpolation of missing measures.
	Interpolate bool `json:"interpolate,omitempty"`
	// RoundTo is the requested number of decimal places (-1: none).
	RoundTo int `json:"round_to"`
	// QuestionText is the full latent question (the benchmark item).
	QuestionText string `json:"question_text"`
}

// Intent is the model's parsed, cumulative understanding of what the user
// has asked for so far. It mirrors NeedSpec but is built bottom-up from
// utterances and grounded against retrieved vocabulary.
type Intent struct {
	WantOverview  bool         `json:"want_overview"`
	Topic         string       `json:"topic,omitempty"`
	MeasurePhrase string       `json:"measure_phrase,omitempty"`
	Aggregate     string       `json:"aggregate,omitempty"`
	Filters       []FilterSpec `json:"filters,omitempty"`
	YearFrom      int          `json:"year_from,omitempty"`
	YearTo        int          `json:"year_to,omitempty"`
	FirstLast     bool         `json:"first_last,omitempty"`
	Interpolate   bool         `json:"interpolate,omitempty"`
	RelativePrev  bool         `json:"relative_prev,omitempty"`
	RoundTo       int          `json:"round_to"`
}

// NewTableInfo converts a table into its prompt DTO: each column's
// documentation, its min and max (empty when every cell is NULL) and up to
// sampleVals of its distinct sample values, all read from the table's
// cached profile.
func NewTableInfo(t *table.Table, sampleVals int) TableInfo {
	p := t.BuildProfile()
	ti := TableInfo{Name: t.Schema.Name, Description: t.Schema.Description, NumRows: t.NumRows()}
	for i, c := range t.Schema.Columns {
		ci := ColumnInfo{
			Name:        c.Name,
			Type:        c.Type.String(),
			Description: c.Description,
			Unit:        c.Unit,
		}
		cs := p.Columns[i]
		if !cs.Min.IsNull() {
			ci.Min, ci.Max = cs.Min.String(), cs.Max.String()
		}
		n := sampleVals
		if n > len(cs.SampleValues) {
			n = len(cs.SampleValues)
		}
		ci.Samples = append(ci.Samples, cs.SampleValues[:n]...)
		ti.Columns = append(ti.Columns, ci)
	}
	return ti
}

// NewDocInfo converts a retrieval document into its prompt DTO.
func NewDocInfo(d docs.Document, sampleVals int) DocInfo {
	di := DocInfo{
		ID:     d.ID,
		Kind:   string(d.Kind),
		Title:  d.Title,
		Source: d.Source,
	}
	if d.Table != nil {
		ti := NewTableInfo(d.Table, sampleVals)
		di.Table = &ti
	} else {
		snippet := d.Content
		if len(snippet) > 400 {
			snippet = snippet[:400]
		}
		di.Snippet = snippet
	}
	return di
}

// FindColumn locates a column by name across the tables of a DocInfo list,
// returning the owning table and column. Used by skills for grounding.
func FindColumn(docsList []DocInfo, column string) (TableInfo, ColumnInfo, bool) {
	for _, d := range docsList {
		if d.Table == nil {
			continue
		}
		for _, c := range d.Table.Columns {
			if equalFold(c.Name, column) {
				return *d.Table, c, true
			}
		}
	}
	return TableInfo{}, ColumnInfo{}, false
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
