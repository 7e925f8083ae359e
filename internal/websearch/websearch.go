// Package websearch implements the paper's Web Search retriever (§3.3): "a
// thin interface to external search engines for general or up-to-date
// information lookup."
//
// No network exists offline, so the engine searches a seeded synthetic web
// corpus instead (an offline substitution of the same kind as the SimModel
// and the embedder the opening of the README describes). The corpus
// includes the tariff schedules the paper's running example retrieves from
// online sources, so the intro scenario exercises the same code path:
// Conductor asks IR System for tariff data → Web Search returns a page
// whose embedded table the Materializer integrates.
//
// Exactly as in the paper's evaluation, Web Search is disabled during
// benchmarks "to prevent leaking benchmark information from the internet".
package websearch

import (
	"context"
	"sync"
	"sync/atomic"

	"pneuma/internal/docs"
	"pneuma/internal/retriever"
	"pneuma/internal/table"
	"pneuma/internal/value"
)

// Page is one synthetic web page.
type Page struct {
	URL     string
	Title   string
	Content string
	// Table is an optional structured payload embedded in the page (e.g. a
	// tariff schedule) that the Materializer can integrate directly.
	Table *table.Table
}

// Engine is the simulated search engine.
type Engine struct {
	mu      sync.RWMutex
	index   *retriever.Retriever
	pages   map[string]Page
	enabled bool
	// version counts mutations that can change query results (page adds
	// and enable/disable toggles); the IR System's query cache keys on it.
	version atomic.Uint64
}

// New creates an engine over the given corpus. A nil corpus yields an empty
// (but enabled) engine; use BuiltinCorpus for the default pages.
func New(corpus []Page) *Engine {
	// A single shard: the synthetic web corpus is small and grows one page
	// at a time, so shard fan-out would only fragment BM25 statistics.
	e := &Engine{
		index:   retriever.New(retriever.WithShards(1)),
		pages:   make(map[string]Page),
		enabled: true,
	}
	for _, p := range corpus {
		e.AddPage(p)
	}
	return e
}

// AddPage indexes one page.
func (e *Engine) AddPage(p Page) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pages[p.URL] = p
	_ = e.index.IndexDocuments(context.Background(), []docs.Document{{
		ID:      p.URL,
		Kind:    docs.KindWeb,
		Title:   p.Title,
		Content: p.Title + "\n" + p.Content,
		Source:  "web-search",
		Table:   p.Table,
		Meta:    map[string]string{"url": p.URL},
	}})
	// Increment only after the page is searchable: a concurrent reader
	// must never cache a page-less result under the post-mutation version.
	e.version.Add(1)
}

// SetEnabled toggles the engine. Benchmarks disable it, matching §4's
// "with Web Search disabled".
func (e *Engine) SetEnabled(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.enabled = on
	e.version.Add(1)
}

// Version returns the mutation counter; equal versions imply identical
// query results for identical queries.
func (e *Engine) Version() uint64 { return e.version.Load() }

// Enabled reports whether the engine answers queries.
func (e *Engine) Enabled() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.enabled
}

// Search returns the top-k pages for the query, or nothing when disabled.
// Cancellation propagates to the underlying hybrid index.
func (e *Engine) Search(ctx context.Context, query string, k int) ([]docs.Document, error) {
	e.mu.RLock()
	on := e.enabled
	e.mu.RUnlock()
	if !on {
		return nil, nil
	}
	return e.index.Search(ctx, query, k)
}

// Len returns the corpus size.
func (e *Engine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.pages)
}

// BuiltinCorpus returns the default synthetic web corpus: tariff schedules
// (current and historical) for the intro scenario, plus distractor pages so
// retrieval has to discriminate.
func BuiltinCorpus() []Page {
	tariffs := table.New(table.Schema{
		Name:        "web_tariff_schedule",
		Description: "Import tariff schedule by country with current and previous rates",
		Columns: []table.Column{
			{Name: "country", Type: value.KindString, Description: "Exporting country"},
			{Name: "category", Type: value.KindString, Description: "Goods category"},
			{Name: "new_tariff", Type: value.KindFloat, Description: "Newly announced tariff rate (fraction)"},
			{Name: "prev_tariff", Type: value.KindFloat, Description: "Previously active tariff rate (fraction)"},
			{Name: "effective_date", Type: value.KindTime, Description: "Date the new rate takes effect"},
		},
	})
	rows := []struct {
		country, category string
		newT, prevT       float64
		date              string
	}{
		{"Germany", "lab equipment", 0.12, 0.05, "2026-02-01"},
		{"Germany", "machinery", 0.10, 0.05, "2026-02-01"},
		{"Germany", "chemicals", 0.08, 0.04, "2026-02-01"},
		{"France", "lab equipment", 0.07, 0.07, "2026-01-15"},
		{"France", "machinery", 0.09, 0.06, "2026-01-15"},
		{"China", "electronics", 0.25, 0.10, "2026-03-01"},
		{"China", "machinery", 0.20, 0.10, "2026-03-01"},
		{"Japan", "electronics", 0.05, 0.05, "2026-01-01"},
		{"USA", "domestic", 0.00, 0.00, "2026-01-01"},
	}
	for _, r := range rows {
		t, _ := value.ParseTime(r.date)
		tariffs.MustAppend(table.Row{
			value.String(r.country), value.String(r.category),
			value.Float(r.newT), value.Float(r.prevT), value.Time(t),
		})
	}

	return []Page{
		{
			URL:   "https://trade.example.gov/tariff-schedule-2026",
			Title: "2026 Import Tariff Schedule: New and Previous Rates by Country",
			Content: "Official import tariff schedule listing newly announced tariff " +
				"rates and previously active tariff rates by exporting country and " +
				"goods category, including Germany, France, China and Japan. " +
				"Effective dates included for each rate change.",
			Table: tariffs,
		},
		{
			URL:   "https://news.example.com/tariff-impact-analysis",
			Title: "Analysts: New Tariffs To Raise Procurement Costs For Importers",
			Content: "Commentary on how the 2026 tariff changes will affect organizations " +
				"that import lab equipment and machinery. Direct effects apply to goods " +
				"from tariffed countries; indirect effects arise from tariffed components " +
				"inside otherwise unaffected imports.",
		},
		{
			URL:   "https://weather.example.com/forecast",
			Title: "10-Day Weather Forecast",
			Content: "Sunny with a chance of rain. Temperatures mild across the region " +
				"this week. Pollen counts moderate.",
		},
		{
			URL:   "https://recipes.example.com/brisket",
			Title: "Slow-Cooked Brisket Recipe",
			Content: "A weekend recipe for slow-cooked brisket with spices. " +
				"Preparation time four hours.",
		},
	}
}
