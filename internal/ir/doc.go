// Package ir implements the paper's IR System (§3.3): the facade that
// "supports Conductor and Materializer by retrieving relevant data from
// multiple sources", abstracting heterogeneous retrieval formats into
// uniform docs.Document objects. Three retrievers are wired in, exactly as
// in the paper: Pneuma-Retriever (tables), the Document Database (domain
// knowledge) and Web Search.
//
// # Query path
//
// System.Query fans a Request out to every selected source concurrently
// and merges the per-source ranked lists with reciprocal-rank fusion
// (k=60): a document's fused score is the sum over sources of
// 1/(60+rank), so a document every source ranks highly outranks one a
// single source ranks first, and scores of incomparable scales (cosine
// similarity, BM25, web relevance) never mix directly. Ties break by
// document ID.
//
// Results are served from a bounded LRU cache of DefaultCacheSize entries
// keyed on (query, k, sources). The cache is
// invalidated by comparing each source's Version() mutation counter at
// lookup time, so a hit is always as fresh as a recomputed query.
//
// # Determinism contract
//
// For fixed source contents, Query returns identical documents in
// identical order on every call: each source is itself deterministic, the
// per-source lists land in fixed slots regardless of goroutine completion
// order, fusion sums in slot order, and the final sort breaks ties by
// document ID. Cached and uncached answers are interchangeable.
package ir
