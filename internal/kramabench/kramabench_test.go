package kramabench

import (
	"strconv"
	"testing"
)

func TestArchaeologyShapeMatchesTable1(t *testing.T) {
	corpus := Archaeology()
	if len(corpus) != 5 {
		t.Fatalf("archaeology tables = %d, want 5", len(corpus))
	}
	totalRows, totalCols := 0, 0
	for name, tbl := range corpus {
		if tbl.NumCols() != 16 {
			t.Errorf("%s has %d cols, want 16", name, tbl.NumCols())
		}
		totalRows += tbl.NumRows()
		totalCols += tbl.NumCols()
	}
	if avg := totalRows / 5; avg != 11289 {
		t.Errorf("avg rows = %d, want 11289 (total %d)", avg, totalRows)
	}
	if avg := totalCols / 5; avg != 16 {
		t.Errorf("avg cols = %d, want 16", avg)
	}
}

func TestEnvironmentShapeMatchesTable1(t *testing.T) {
	corpus := Environment()
	if len(corpus) != 36 {
		t.Fatalf("environment tables = %d, want 36", len(corpus))
	}
	totalRows, totalCols := 0, 0
	for name, tbl := range corpus {
		if tbl.NumCols() != 10 {
			t.Errorf("%s has %d cols, want 10", name, tbl.NumCols())
		}
		totalRows += tbl.NumRows()
		totalCols += tbl.NumCols()
	}
	if avg := totalRows / 36; avg != 9199 {
		t.Errorf("avg rows = %d, want 9199 (total %d)", avg, totalRows)
	}
	if avg := totalCols / 36; avg != 10 {
		t.Errorf("avg cols = %d, want 10", avg)
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	a1 := Archaeology()["soil_samples"]
	a2 := Archaeology()["soil_samples"]
	if a1.NumRows() != a2.NumRows() {
		t.Fatal("row counts differ across builds")
	}
	for i := 0; i < 50; i++ {
		for c := 0; c < a1.NumCols(); c++ {
			if a1.At(i, c).String() != a2.At(i, c).String() {
				t.Fatalf("cell (%d,%d) differs: %q vs %q", i, c, a1.At(i, c), a2.At(i, c))
			}
		}
	}
}

func TestQuestionBanksBuild(t *testing.T) {
	arch := Archaeology()
	env := Environment()
	aq := ArchaeologyQuestions(arch)
	if len(aq) != 12 {
		t.Fatalf("archaeology questions = %d, want 12", len(aq))
	}
	eq := EnvironmentQuestions(env)
	if len(eq) != 20 {
		t.Fatalf("environment questions = %d, want 20", len(eq))
	}
	seen := map[string]bool{}
	for _, q := range append(aq, eq...) {
		if q.Answer == "" {
			t.Errorf("%s has empty ground truth", q.ID)
		}
		if q.Need.QuestionText == "" {
			t.Errorf("%s has no question text", q.ID)
		}
		if seen[q.ID] {
			t.Errorf("duplicate question id %s", q.ID)
		}
		seen[q.ID] = true
		if len(q.RelevantTables) == 0 {
			t.Errorf("%s lists no relevant tables", q.ID)
		}
	}
}

func TestAnswersMatch(t *testing.T) {
	q := Question{Answer: "12.345"}
	q.Need.RoundTo = 3
	if !q.AnswersMatch("12.345") {
		t.Error("exact match failed")
	}
	if !q.AnswersMatch("12.3451") {
		t.Error("within-rounding match failed")
	}
	if q.AnswersMatch("12.346") {
		t.Error("off-by-rounding should not match")
	}
	if q.AnswersMatch("") {
		t.Error("empty answer must not match")
	}
	qs := Question{Answer: "North Basin"}
	if !qs.AnswersMatch("north basin") {
		t.Error("case-insensitive string match failed")
	}
	if qs.AnswersMatch("South Basin") {
		t.Error("wrong string matched")
	}
}

func TestDirtyDataPresent(t *testing.T) {
	arch := Archaeology()
	soil := arch["soil_samples"]
	di := soil.Schema.ColumnIndex("sample_date")
	nd := 0
	for ri := range soil.NumRows() {
		row := soil.Row(ri)
		if row[di].String() == "n.d." {
			nd++
		}
	}
	if nd == 0 {
		t.Error("soil_samples should contain 'n.d.' dates for the repair loop")
	}
	artifacts := arch["artifacts"]
	mi := artifacts.Schema.ColumnIndex("mass_g")
	unknown := 0
	for ri := range artifacts.NumRows() {
		row := artifacts.Row(ri)
		if row[mi].String() == "unknown" {
			unknown++
		}
	}
	if unknown == 0 {
		t.Error("artifacts should contain 'unknown' masses for the repair loop")
	}
	ki := soil.Schema.ColumnIndex("k_ppm")
	nulls := 0
	for ri := range soil.NumRows() {
		row := soil.Row(ri)
		if row[ki].IsNull() {
			nulls++
		}
	}
	frac := float64(nulls) / float64(soil.NumRows())
	if frac < 0.15 || frac > 0.25 {
		t.Errorf("k_ppm null fraction = %.3f, want ~0.20", frac)
	}
}

var _ = strconv.Itoa
