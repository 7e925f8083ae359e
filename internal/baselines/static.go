package baselines

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"pneuma/internal/bm25"
	"pneuma/internal/docs"
	"pneuma/internal/llm"
	"pneuma/internal/retriever"
	"pneuma/internal/table"
)

// sampleRowsShown is how many raw sample rows a static system returns per
// table. Matches the paper's observation that even sample-row-only views
// blow through a 128k window in 2-3 turns.
const sampleRowsShown = 400

// staticTopK is the number of tables a static system returns per query.
const staticTopK = 5

// FTS is the BM25 full-text-search baseline: tables are indexed by their
// column names and sample values only (no descriptions — plain full-text
// search has no schema documentation), and a query returns the raw tables.
// It performs no interpretation, no computation and keeps no state.
type FTS struct {
	index  *bm25.Index
	byName map[string]*table.Table
}

// NewFTS indexes a corpus.
func NewFTS(corpus map[string]*table.Table) *FTS {
	f := &FTS{index: bm25.New(bm25.Params{}), byName: make(map[string]*table.Table)}
	names := sortedNames(corpus)
	texts := make([]string, len(names))
	for i, name := range names {
		t := corpus[name]
		f.byName[name] = t
		texts[i] = ftsText(t)
	}
	f.index.AddBatch(names, texts)
	return f
}

// ftsText renders a table the way plain full-text search sees it: name,
// column names and sample values; descriptions are schema documentation a
// generic FTS engine does not have.
func ftsText(t *table.Table) string {
	var b strings.Builder
	b.WriteString(t.Schema.Name)
	b.WriteByte('\n')
	for _, c := range t.Schema.Columns {
		b.WriteString(c.Name)
		b.WriteByte(' ')
	}
	b.WriteByte('\n')
	profile := t.Head(500).BuildProfile()
	for _, cs := range profile.Columns {
		for _, s := range cs.SampleValues {
			if len(s) <= 32 {
				b.WriteString(s)
				b.WriteByte(' ')
			}
		}
	}
	return b.String()
}

// Name implements System.
func (f *FTS) Name() string { return "FTS" }

// Kind implements System.
func (f *FTS) Kind() string { return "static" }

// StartConversation implements System. FTS is stateless, so conversations
// share the index.
func (f *FTS) StartConversation() Conversation { return &ftsConv{f} }

type ftsConv struct{ f *FTS }

func (c *ftsConv) Respond(ctx context.Context, utterance string) (Output, error) {
	_ = ctx // the FTS index is purely in-memory and non-blocking
	hits := c.f.index.Search(utterance, staticTopK)
	var tables []*table.Table
	for _, h := range hits {
		tables = append(tables, c.f.byName[h.ID])
	}
	return staticOutput(tables), nil
}

// RetrieverOnly is Pneuma-Retriever used as a static system (§4.1): its
// hybrid index sees descriptions (that is Pneuma-Retriever's design), but
// like FTS it "only returns tables, represented by their columns and sample
// rows" — no interpretation, no computation.
type RetrieverOnly struct {
	ret *retriever.Retriever
}

// NewRetrieverOnly indexes a corpus with the hybrid index.
func NewRetrieverOnly(corpus map[string]*table.Table) (*RetrieverOnly, error) {
	ret := retriever.New()
	if err := ret.IndexTables(context.Background(), sortedTables(corpus)); err != nil {
		return nil, err
	}
	return &RetrieverOnly{ret: ret}, nil
}

// Name implements System.
func (r *RetrieverOnly) Name() string { return "Pneuma-Retriever" }

// Kind implements System.
func (r *RetrieverOnly) Kind() string { return "static" }

// StartConversation implements System.
func (r *RetrieverOnly) StartConversation() Conversation { return &retrieverConv{r} }

type retrieverConv struct{ r *RetrieverOnly }

func (c *retrieverConv) Respond(ctx context.Context, utterance string) (Output, error) {
	hits, err := c.r.ret.Search(ctx, utterance, staticTopK)
	if err != nil {
		return Output{}, err
	}
	var tables []*table.Table
	for _, h := range hits {
		if h.Table != nil {
			tables = append(tables, h.Table)
		}
	}
	return staticOutput(tables), nil
}

// staticOutput renders raw tables: the DTOs the user simulator anchors
// against (column names + samples, NO descriptions — the user must
// interpret physical names alone) plus the full sample-row dump whose token
// bill lands in the user's context.
func staticOutput(tables []*table.Table) Output {
	var out Output
	var b strings.Builder
	for _, t := range tables {
		ti := llm.NewTableInfo(t, 24)
		// Static systems surface no schema documentation.
		for i := range ti.Columns {
			ti.Columns[i].Description = ""
			ti.Columns[i].Unit = ""
		}
		ti.Description = ""
		out.ShownTables = append(out.ShownTables, ti)
		fmt.Fprintf(&b, "=== %s ===\n", t.Schema.Name)
		b.WriteString(t.Head(sampleRowsShown).Render(sampleRowsShown))
	}
	if len(tables) == 0 {
		b.WriteString("(no matching tables)")
	}
	out.Message = b.String()
	out.ContextTokens = llm.EstimateTokens(out.Message)
	return out
}

// sortedNames returns corpus table names in deterministic order.
func sortedNames(corpus map[string]*table.Table) []string {
	names := make([]string, 0, len(corpus))
	for n := range corpus {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sortedTables returns the corpus tables in name order.
func sortedTables(corpus map[string]*table.Table) []*table.Table {
	names := sortedNames(corpus)
	ts := make([]*table.Table, len(names))
	for i, n := range names {
		ts[i] = corpus[n]
	}
	return ts
}

// docFromTable builds the retrieval document for a table (shared helper).
func docFromTable(t *table.Table) docs.Document { return docs.TableDocument(t) }
