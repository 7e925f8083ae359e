// Package docs defines the uniform Document abstraction of the paper's IR
// System (§3.3): heterogeneous retrieval results — tables, domain knowledge
// notes, web pages — are all surfaced as Document objects so that new
// retrievers can be added without changing the rest of the system.
//
// A document's text for an LLM context or a wire reply is written by
// AppendSummary into a caller's buffer; Summary is a one-line wrapper of it.
package docs

import (
	"strconv"
	"strings"

	"pneuma/internal/table"
)

// Kind classifies the payload of a Document.
type Kind string

// The document kinds the current retrievers produce.
const (
	// KindTable is a structured table from Pneuma-Retriever.
	KindTable Kind = "table"
	// KindKnowledge is a domain-knowledge note from the Document Database.
	KindKnowledge Kind = "knowledge"
	// KindWeb is a page from the Web Search interface.
	KindWeb Kind = "web"
)

// Document is the uniform retrieval result.
type Document struct {
	// ID uniquely identifies the document within its source.
	ID string
	// Kind is the payload class.
	Kind Kind
	// Title is a short human-readable name (table name, note topic, page
	// title).
	Title string
	// Content is the searchable text: schema summary for tables, note body
	// for knowledge, page text for web documents.
	Content string
	// Source names the retriever that produced the document
	// ("pneuma-retriever", "document-db", "web-search").
	Source string
	// Table is the structured payload for KindTable documents (and for web
	// documents that embed a table, e.g. a tariff schedule). Nil otherwise.
	Table *table.Table
	// Meta carries retriever-specific metadata (e.g. URL for web pages).
	Meta map[string]string
	// Score is the retriever's relevance score, comparable only within one
	// result list.
	Score float64
}

// Summary renders a compact description of the document for an LLM context:
// title, kind and the head of the content. Table documents include the
// schema and up to sampleRows sample rows, mirroring the paper's point that
// LLM Sim "can only observe sample rows to prevent hitting the context
// limit". It wraps AppendSummary.
func (d *Document) Summary(sampleRows int) string { return string(d.AppendSummary(nil, sampleRows)) }

// AppendSummary appends Summary's text to dst, writing the table parts
// through Schema.AppendTo and Table.AppendRender; into a buffer with room for
// it, it allocates nothing. The content of a document without a table is cut
// at its 600th byte, possibly inside a rune.
func (d *Document) AppendSummary(dst []byte, sampleRows int) []byte {
	dst = append(dst, '[')
	dst = append(dst, d.Kind...)
	dst = append(dst, "] "...)
	dst = append(dst, d.Title...)
	dst = append(dst, " (source: "...)
	dst = append(dst, d.Source...)
	dst = append(dst, ")\n"...)
	if t := d.Table; t != nil {
		dst = append(dst, "schema: "...)
		dst = t.Schema.AppendTo(dst)
		dst = append(dst, '\n')
		for i := range t.Schema.Columns {
			c := &t.Schema.Columns[i]
			if c.Description == "" {
				continue
			}
			dst = append(dst, "  "...)
			dst = append(dst, c.Name...)
			dst = append(dst, ": "...)
			dst = append(dst, c.Description...)
			if c.Unit != "" {
				dst = append(dst, " ["...)
				dst = append(dst, c.Unit...)
				dst = append(dst, ']')
			}
			dst = append(dst, '\n')
		}
		dst = append(dst, "rows: "...)
		dst = strconv.AppendInt(dst, int64(t.NumRows()), 10)
		dst = append(dst, '\n')
		if sampleRows > 0 {
			dst = t.AppendRender(dst, sampleRows)
		}
		return dst
	}
	const maxLen = 600
	if len(d.Content) > maxLen {
		dst = append(dst, d.Content[:maxLen]...)
		dst = append(dst, "..."...)
	} else {
		dst = append(dst, d.Content...)
	}
	return append(dst, '\n')
}

// TableDocument builds the canonical document for a table: the content
// concatenates name, description, column names, column descriptions, units
// and a handful of sample values — the text both the BM25 and vector sides
// of the hybrid index consume.
func TableDocument(t *table.Table) Document {
	var b strings.Builder
	b.WriteString(t.Schema.Name)
	b.WriteByte(' ')
	b.WriteString(t.Schema.Description)
	b.WriteByte('\n')
	for _, c := range t.Schema.Columns {
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Description)
		if c.Unit != "" {
			b.WriteByte(' ')
			b.WriteString(c.Unit)
		}
		b.WriteByte('\n')
	}
	// Sample a few distinct values per column so value-literal queries
	// ("Malta", "Germany") can match the right table.
	profile := t.Head(200).BuildProfile()
	for _, cs := range profile.Columns {
		for _, s := range cs.SampleValues {
			if len(s) <= 32 {
				b.WriteString(s)
				b.WriteByte(' ')
			}
		}
	}
	return Document{
		ID:      "table:" + t.Schema.Name,
		Kind:    KindTable,
		Title:   t.Schema.Name,
		Content: b.String(),
		Source:  "pneuma-retriever",
		Table:   t,
	}
}
