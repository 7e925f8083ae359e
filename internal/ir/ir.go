package ir

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pneuma/internal/docdb"
	"pneuma/internal/docs"
	"pneuma/internal/pnerr"
	"pneuma/internal/retriever"
	"pneuma/internal/table"
	"pneuma/internal/websearch"
)

// Source selects a retriever.
type Source string

// The available sources.
const (
	SourceTables    Source = "tables"
	SourceKnowledge Source = "knowledge"
	SourceWeb       Source = "web"
)

// AllSources lists every source in query order.
var AllSources = []Source{SourceTables, SourceKnowledge, SourceWeb}

// DefaultCacheSize bounds the LRU query-result cache.
const DefaultCacheSize = 128

// errNotConfigured marks an explicitly requested source that this System
// has no retriever for; it rides the degraded join so callers see which
// source was missing.
var errNotConfigured = errors.New("source not configured on this system")

// rrfK is the reciprocal-rank-fusion constant used for cross-source
// merging (standard value 60, the same constant Pneuma-Retriever uses to
// fuse its vector and lexical halves).
const rrfK = 60.0

// System is the IR System facade.
type System struct {
	Tables    *retriever.Retriever
	Knowledge *docdb.DB
	Web       *websearch.Engine

	cache *queryCache
}

// Option configures a System.
type Option func(*System)

// WithCacheSize sets the LRU query-cache capacity (default
// DefaultCacheSize; 0 disables caching).
func WithCacheSize(n int) Option {
	return func(s *System) { s.cache = newQueryCache(n) }
}

// New wires a System from its three retrievers. Nil components are allowed
// and simply return no results, so a caller can run tables-only.
func New(tables *retriever.Retriever, knowledge *docdb.DB, web *websearch.Engine, opts ...Option) *System {
	s := &System{
		Tables:    tables,
		Knowledge: knowledge,
		Web:       web,
		cache:     newQueryCache(DefaultCacheSize),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// snapshotVersions reads the mutation counters of all three sources; a nil
// source contributes a constant, so it never invalidates the cache.
func (s *System) snapshotVersions() versions {
	var v versions
	if s.Tables != nil {
		v[0] = s.Tables.Version()
	}
	if s.Knowledge != nil {
		v[1] = s.Knowledge.Version()
	}
	if s.Web != nil {
		v[2] = s.Web.Version()
	}
	return v
}

// Request is one retrieval request from Conductor or Materializer.
type Request struct {
	// Query is the natural-language retrieval request, e.g. "previously
	// active tariff for the region".
	Query string
	// K is the per-source result budget (default 5).
	K int
	// Sources restricts which retrievers answer; empty means all.
	Sources []Source
}

// Result is the merged retrieval response.
type Result struct {
	Documents []docs.Document
	// Degraded carries the per-source failures of a partially successful
	// query (errors.Join of one typed error per failed source, nil when
	// every source answered). Documents still holds the fusion of the
	// sources that succeeded — one failing source no longer discards the
	// others' good results.
	Degraded error
}

// TableDocs filters the result to table documents.
func (r Result) TableDocs() []docs.Document {
	var out []docs.Document
	for _, d := range r.Documents {
		if d.Table != nil {
			out = append(out, d)
		}
	}
	return out
}

// KnowledgeDocs filters the result to knowledge documents.
func (r Result) KnowledgeDocs() []docs.Document {
	var out []docs.Document
	for _, d := range r.Documents {
		if d.Kind == docs.KindKnowledge {
			out = append(out, d)
		}
	}
	return out
}

// Query runs the request against the selected sources concurrently and
// merges results with reciprocal-rank fusion: a document's score is the
// sum over sources of 1/(60+rank), so a document every source ranks highly
// outranks one a single source ranks first, while scores of incomparable
// scales (cosine, BM25, web relevance) never mix directly. Ties break by
// document ID, so the merged order is deterministic. Results are served
// from a bounded LRU cache keyed on (query, k, sources) and invalidated
// whenever any source's index mutates.
//
// Failure semantics: a canceled ctx returns a typed pnerr.ErrCanceled; an
// unknown source returns pnerr.ErrBadQuery; and when only some sources
// fail, the query degrades instead of discarding the good results — the
// returned Result fuses the successful sources and carries the per-source
// failures (errors.Join) in Result.Degraded. Only when every source fails
// is an error (pnerr.ErrDegraded wrapping the join) returned. Degraded
// results are never cached, so a recovered source is consulted again on
// the next identical query.
func (s *System) Query(ctx context.Context, req Request) (Result, error) {
	k := req.K
	if k <= 0 {
		k = 5
	}
	sources := req.Sources
	if len(sources) == 0 {
		sources = AllSources
	}
	for _, src := range sources {
		switch src {
		case SourceTables, SourceKnowledge, SourceWeb:
		default:
			return Result{}, pnerr.BadQueryf("ir: query", "unknown source %q", src)
		}
	}
	if err := ctx.Err(); err != nil {
		return Result{}, pnerr.Canceled("ir: query", err)
	}

	key := cacheKey(req.Query, k, sources)
	vers := s.snapshotVersions()
	if ds, ok := s.cache.get(key, vers); ok {
		return Result{Documents: ds}, nil
	}

	// Fan out to all requested sources concurrently; slot i of lists holds
	// source i's ranked results, so the fusion below is order-independent
	// of goroutine completion. Each source is ctx-aware, so cancellation
	// propagates into the shard fan-outs and the wait stays short.
	//
	// A nil source is silent under the default all-sources fan-out (a
	// tables-only System is a supported configuration, not a failure) but
	// counts as a failed source when the request named it explicitly:
	// a caller asking for "web" on a System without web search gets the
	// degraded contract — surviving fusion plus an error naming the
	// missing source — never a silently smaller answer.
	explicit := len(req.Sources) > 0
	lists := make([][]docs.Document, len(sources))
	errs := make([]error, len(sources))
	var wg sync.WaitGroup
	for i, src := range sources {
		wg.Add(1)
		go func(i int, src Source) {
			defer wg.Done()
			var configured bool
			switch src {
			case SourceTables:
				if s.Tables != nil {
					configured = true
					lists[i], errs[i] = s.Tables.Search(ctx, req.Query, k)
				}
			case SourceKnowledge:
				if s.Knowledge != nil {
					configured = true
					lists[i], errs[i] = s.Knowledge.Search(ctx, req.Query, k)
				}
			case SourceWeb:
				if s.Web != nil {
					configured = true
					lists[i], errs[i] = s.Web.Search(ctx, req.Query, k)
				}
			}
			if !configured && explicit {
				errs[i] = errNotConfigured
			}
		}(i, src)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return Result{}, pnerr.Canceled("ir: query", err)
	}
	// Partial-failure policy: degrade to fusing the sources that answered.
	var sourceErrs []error
	failed := 0
	for i, err := range errs {
		if err != nil {
			failed++
			sourceErrs = append(sourceErrs, fmt.Errorf("ir: source %s: %w", sources[i], err))
			lists[i] = nil
		}
	}
	degraded := errors.Join(sourceErrs...)
	if failed == len(sources) {
		return Result{}, pnerr.Degraded("ir: query", degraded)
	}

	// Reciprocal-rank fusion across sources. IDs are namespaced per source
	// ("table:", "note:", URLs), so a collision means the same document
	// surfaced twice and its contributions sum, which is exactly RRF.
	type fusedDoc struct {
		doc   docs.Document
		score float64
	}
	fused := make(map[string]*fusedDoc)
	for _, got := range lists {
		for rank, d := range got {
			f, ok := fused[d.ID]
			if !ok {
				f = &fusedDoc{doc: d}
				fused[d.ID] = f
			}
			f.score += 1.0 / (rrfK + float64(rank+1))
		}
	}
	merged := make([]docs.Document, 0, len(fused))
	for _, f := range fused {
		f.doc.Score = f.score
		merged = append(merged, f.doc)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Score != merged[j].Score {
			return merged[i].Score > merged[j].Score
		}
		return merged[i].ID < merged[j].ID
	})

	if degraded == nil {
		// Only complete results enter the cache: caching a degraded fusion
		// would keep serving the gap after the failing source recovers.
		s.cache.put(key, vers, merged)
	}
	return Result{Documents: merged, Degraded: degraded}, nil
}

// cacheKey builds the cache key for a normalized request. Sources arrive
// in caller order; order affects neither fusion nor ranking, so the key
// normalizes it away by sorting.
func cacheKey(query string, k int, sources []Source) string {
	names := make([]string, len(sources))
	for i, s := range sources {
		names[i] = string(s)
	}
	sort.Strings(names)
	return strconv.Itoa(k) + "\x00" + strings.Join(names, ",") + "\x00" + query
}

// CacheLen reports the number of live cache entries (tests and
// instrumentation).
func (s *System) CacheLen() int { return s.cache.len() }

// LookupTable fetches a table by exact name from the table retriever's
// store — the grounding path Conductor uses to verify a table it is about
// to reference actually exists (§3.2).
func (s *System) LookupTable(name string) (*table.Table, bool) {
	if s.Tables == nil {
		return nil, false
	}
	d, ok := s.Tables.Document("table:" + name)
	if !ok || d.Table == nil {
		return nil, false
	}
	return d.Table, true
}
