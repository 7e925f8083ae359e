// Package embed implements a deterministic text embedding model based on
// feature hashing.
//
// The paper's Pneuma-Retriever uses neural sentence embeddings inside an
// HNSW vector store. Neural weights are unavailable offline, so this
// package substitutes a hashed bag-of-features embedder: every normalized
// token and every character trigram of every token is hashed (FNV-1a) into
// a fixed number of buckets with a signed contribution, then the vector is
// L2-normalized. Texts sharing vocabulary — or sharing word morphology via
// the trigrams — land near each other in cosine space, which is the
// property hybrid retrieval needs.
//
// # Determinism contract
//
// The model is fully deterministic, so every experiment is reproducible
// bit-for-bit. This extends to the batch path the sharded retriever's
// bulk ingest uses: EmbedBatch runs a bounded worker pool in which each
// worker writes only its own positionally-assigned output slot, so the
// result is bit-identical to embedding each text sequentially regardless
// of worker count or scheduling.
package embed
