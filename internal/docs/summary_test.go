package docs_test

import (
	"fmt"
	"strings"
	"testing"

	"pneuma/internal/docs"
	"pneuma/internal/kramabench"
	"pneuma/internal/racebuild"
	"pneuma/internal/table"
	"pneuma/internal/websearch"
)

// referenceSummary is Document.Summary as it was before AppendSummary, kept
// verbatim as the definition the append form must reproduce byte for byte.
// Its Schema.String and Render are held to their own references in
// internal/table.
func referenceSummary(d *docs.Document, sampleRows int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s (source: %s)\n", d.Kind, d.Title, d.Source)
	if d.Table != nil {
		b.WriteString("schema: ")
		b.WriteString(d.Table.Schema.String())
		b.WriteByte('\n')
		for _, c := range d.Table.Schema.Columns {
			if c.Description != "" {
				fmt.Fprintf(&b, "  %s: %s", c.Name, c.Description)
				if c.Unit != "" {
					fmt.Fprintf(&b, " [%s]", c.Unit)
				}
				b.WriteByte('\n')
			}
		}
		fmt.Fprintf(&b, "rows: %d\n", d.Table.NumRows())
		if sampleRows > 0 {
			b.WriteString(d.Table.Render(sampleRows))
		}
		return b.String()
	}
	content := d.Content
	const maxLen = 600
	if len(content) > maxLen {
		content = content[:maxLen] + "..."
	}
	b.WriteString(content)
	b.WriteByte('\n')
	return b.String()
}

// summaryDocs are the documents the golden test renders: every Archaeology
// and Environment table, the built-in web pages (some carrying a table) as
// the web engine indexes them, and notes and pages with non-ASCII text,
// including content cut inside a rune at the 600-byte limit.
func summaryDocs() []docs.Document {
	var out []docs.Document
	for _, corpus := range []map[string]*table.Table{kramabench.Archaeology(), kramabench.Environment()} {
		for _, tb := range corpus {
			out = append(out, docs.TableDocument(tb))
		}
	}
	for _, p := range websearch.BuiltinCorpus() {
		out = append(out, docs.Document{ID: p.URL, Kind: docs.KindWeb, Title: p.Title,
			Content: p.Title + "\n" + p.Content, Source: "web-search", Table: p.Table})
	}
	for i, content := range []string{
		"", "short note", "Températures en °C, 漢字 and 𝄞",
		strings.Repeat("a", 599) + "é and more", strings.Repeat("a", 598) + "漢字", strings.Repeat("a", 600),
		strings.Repeat("é", 301), strings.Repeat("x", 601),
	} {
		out = append(out,
			docs.Document{ID: fmt.Sprintf("note:%d", i), Kind: docs.KindKnowledge, Title: "note " + content[:min(len(content), 9)],
				Content: content, Source: "document-db"},
			docs.Document{ID: fmt.Sprintf("web:%d", i), Kind: docs.KindWeb, Title: "page", Content: content, Source: "web-search"})
	}
	return out
}

func TestSummaryMatchesReference(t *testing.T) {
	for _, d := range summaryDocs() {
		for _, n := range []int{0, 2, 8, 10, 40} {
			want := referenceSummary(&d, n)
			if got := d.Summary(n); got != want {
				t.Fatalf("%s: Summary(%d) =\n%s\nwant\n%s", d.ID, n, got, want)
			}
			if got := string(d.AppendSummary([]byte("> "), n)); got != "> "+want {
				t.Fatalf("%s: AppendSummary(%d) =\n%s\nwant\n> %s", d.ID, n, got, want)
			}
		}
	}
}

// TestAppendSummaryAllocs: into a buffer with room for it, a summary is
// written without allocating — the search reply renders every hit this way.
func TestAppendSummaryAllocs(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	buf := make([]byte, 0, 64<<10)
	for _, d := range summaryDocs() {
		if n := testing.AllocsPerRun(20, func() { buf = d.AppendSummary(buf[:0], 2) }); n != 0 {
			t.Errorf("%s: AppendSummary allocates %v times into a sized buffer, want 0", d.ID, n)
		}
	}
}
