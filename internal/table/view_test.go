package table_test

import (
	"bytes"
	"reflect"
	"testing"

	"pneuma/internal/kramabench"
	"pneuma/internal/racebuild"
	"pneuma/internal/table"
	"pneuma/internal/value"
)

// sameStats compares two profiles field by field: Min and Max by kind and
// payload, the samples as lists.
func sameStats(t *testing.T, what string, got, want table.Profile) {
	t.Helper()
	if len(got.Columns) != len(want.Columns) {
		t.Fatalf("%s: %d column stats, want %d", what, len(got.Columns), len(want.Columns))
	}
	for c := range want.Columns {
		g, w := got.Columns[c], want.Columns[c]
		if g.Min != w.Min || g.Max != w.Max {
			t.Errorf("%s column %d: range [%v, %v], want [%v, %v]", what, c, g.Min, g.Max, w.Min, w.Max)
		}
		if !reflect.DeepEqual(g.SampleValues, w.SampleValues) {
			t.Errorf("%s column %d: samples %q, want %q", what, c, g.SampleValues, w.SampleValues)
		}
	}
}

// profileIsPublished reports whether BuildProfile on tb reads no row: a
// published profile is returned without allocating.
func profileIsPublished(tb *table.Table) bool {
	return testing.AllocsPerRun(3, func() { tb.BuildProfile() }) == 0
}

// soilView projects kramabench's soil_samples onto a reordered subset of its
// columns, with one column twice.
func soilView(t *testing.T) (src, view *table.Table, cols []int) {
	src = kramabench.Archaeology()["soil_samples"]
	if src.NumCols() < 6 {
		t.Fatalf("soil_samples has %d columns", src.NumCols())
	}
	cols = []int{5, 0, 3, 5, 1}
	return src, src.Project(cols), cols
}

func TestProjectReadsThroughPositions(t *testing.T) {
	src, view, cols := soilView(t)
	if view.NumRows() != src.NumRows() || view.NumCols() != len(cols) {
		t.Fatalf("view is %dx%d, want %dx%d", view.NumRows(), view.NumCols(), src.NumRows(), len(cols))
	}
	if view.Schema.Name != src.Schema.Name || view.Schema.Description != src.Schema.Description {
		t.Errorf("view schema %q/%q, want %q/%q", view.Schema.Name, view.Schema.Description, src.Schema.Name, src.Schema.Description)
	}
	for i, c := range cols {
		if view.Schema.Columns[i] != src.Schema.Columns[c] {
			t.Errorf("view column %d = %+v, want %+v", i, view.Schema.Columns[i], src.Schema.Columns[c])
		}
	}
	for r := range view.NumRows() {
		row := view.Row(r)
		for i, c := range cols {
			want := src.At(r, c)
			if view.At(r, i) != want || row[i] != want || view.Vector(i).At(r) != want {
				t.Fatalf("cell (%d,%d) = %v / %v / %v, want %v", r, i, view.At(r, i), row[i], view.Vector(i).At(r), want)
			}
		}
	}

	// A projection of a projection composes positions, and the text forms
	// read the same cells as a deep copy's.
	inner := view.Project([]int{4, 2, 0})
	deep := inner.Clone()
	for r := range inner.NumRows() {
		if !reflect.DeepEqual(inner.Row(r), deep.Row(r)) || inner.At(r, 2) != src.At(r, 5) {
			t.Fatalf("row %d of a projection's projection: %v, deep copy %v", r, inner.Row(r), deep.Row(r))
		}
	}
	if got, want := inner.Render(20), deep.Render(20); got != want {
		t.Errorf("Render over a projection differs from its deep copy\n got:\n%s\nwant:\n%s", got, want)
	}
	var got, want bytes.Buffer
	if err := inner.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := deep.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Error("WriteCSV over a projection differs from its deep copy")
	}
}

// TestProjectCarriesProfile: a projection of a profiled table publishes the
// chosen columns' stats without reading a row, and they are exactly what a
// cold BuildProfile of a deep-copied projection computes.
func TestProjectCarriesProfile(t *testing.T) {
	src, _, cols := soilView(t)
	src.BuildProfile()
	view := src.Project(cols)
	if !racebuild.Enabled && !profileIsPublished(view) {
		t.Error("a projection of a profiled table does a row pass")
	}
	sameStats(t, "projection", view.BuildProfile(), view.Clone().BuildProfile())
	sameStats(t, "projection vs reference", view.BuildProfile(), profileOf(view))

	inner := view.Project([]int{3, 1})
	if !racebuild.Enabled && !profileIsPublished(inner) {
		t.Error("a projection of a profiled projection does a row pass")
	}
	sameStats(t, "projection of a projection", inner.BuildProfile(), inner.Clone().BuildProfile())

	// Unprofiled input: the projection profiles itself through positions.
	cold := kramabench.Archaeology()["soil_samples"].Project(cols)
	sameStats(t, "cold projection", cold.BuildProfile(), cold.Clone().BuildProfile())
}

// TestHeadCarriesProfile: a head of every row is the same table under a new
// header, so it carries the profile and the positions; a shorter head does
// not carry the profile.
func TestHeadCarriesProfile(t *testing.T) {
	src, view, _ := soilView(t)
	view.BuildProfile()
	full := view.Head(view.NumRows())
	if !racebuild.Enabled && !profileIsPublished(full) {
		t.Error("a head of every row does a row pass")
	}
	sameStats(t, "full head", full.BuildProfile(), view.Clone().BuildProfile())
	short := view.Head(7)
	sameStats(t, "short head", short.BuildProfile(), profileOf(short.Clone()))
	if short.At(6, 0) != src.At(6, 5) {
		t.Errorf("head cell = %v, want %v", short.At(6, 0), src.At(6, 5))
	}
}

// TestAppendToProjectionMaterializes pins what Append does to a projection:
// it copies the projection's vectors into vectors of its own first, so the
// appended row lands beside the old ones and the input is left alone.
func TestAppendToProjectionMaterializes(t *testing.T) {
	src := table.New(table.Schema{Name: "t", Columns: []table.Column{{Name: "a"}, {Name: "b"}, {Name: "c"}}})
	src.MustAppend(table.Row{value.Int(1), value.String("x"), value.Float(1.5)})
	src.MustAppend(table.Row{value.Int(2), value.String("y"), value.Float(2.5)})
	before := src.Render(-1)

	view := src.Project([]int{2, 0})
	view.MustAppend(table.Row{value.Float(3.5), value.Int(3)})
	if src.Render(-1) != before || src.NumRows() != 2 {
		t.Fatalf("append to a projection changed its input:\n%s", src.Render(-1))
	}
	want := [][]value.Value{{value.Float(1.5), value.Int(1)}, {value.Float(2.5), value.Int(2)}, {value.Float(3.5), value.Int(3)}}
	if view.NumRows() != len(want) {
		t.Fatalf("%d rows after append, want %d", view.NumRows(), len(want))
	}
	for r, w := range want {
		if got := view.Row(r); !reflect.DeepEqual([]value.Value(got), w) {
			t.Errorf("row %d = %v, want %v in schema order", r, got, w)
		}
	}

	// The input still appends in place, and the projection does not see it.
	src.MustAppend(table.Row{value.Int(4), value.String("z"), value.Float(4.5)})
	if view.NumRows() != 3 || view.At(2, 0) != value.Float(3.5) || src.At(2, 2) != value.Float(4.5) {
		t.Errorf("after appending to the input: view row 2 = %v, input row 2 = %v", view.Row(2), src.Row(2))
	}
}

// TestWithColumnLeavesSharedVectors: an op's edit replaces one column's
// vector in a table of its own, never writing the vectors it shares with a
// projection's input.
func TestWithColumnLeavesSharedVectors(t *testing.T) {
	src, view, _ := soilView(t)
	before := src.Render(5)
	var b table.ColumnBuilder
	b.Append(value.String("edited"))
	for r := 1; r < view.NumRows(); r++ {
		b.Append(view.At(r, 1))
	}
	col := view.Schema.Columns[1]
	col.Name = "renamed"
	edit := view.WithColumn(1, col, &b)
	if src.Render(5) != before || view.At(0, 1) != src.At(0, 0) || view.Schema.Columns[1].Name == "renamed" {
		t.Fatal("WithColumn wrote its input")
	}
	if edit.At(0, 1).String() != "edited" || edit.At(0, 0) != view.At(0, 0) || edit.At(1, 1) != view.At(1, 1) {
		t.Errorf("edited row = %v", edit.Row(0))
	}
}
