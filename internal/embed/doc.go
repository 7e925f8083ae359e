// Package embed implements a deterministic text embedding model based on
// feature hashing.
//
// The paper's Pneuma-Retriever uses neural sentence embeddings inside an
// HNSW vector store. Neural weights are unavailable offline, so this
// package substitutes a hashed bag-of-features embedder: every normalized
// token and every character trigram of every token is hashed into a fixed
// number of buckets with a signed contribution, then the vector is
// L2-normalized. Texts sharing vocabulary — or sharing word morphology via
// the trigrams — land near each other in cosine space, which is the
// property hybrid retrieval needs.
//
// # Feature set
//
// The features are defined byte for byte. The tokens are those of
// textutil.Walk, in order. For each token, first the token feature: the
// 64-bit FNV-1a hash of the bytes "t:" followed by the token, weight 1.0.
// Then, for each distinct byte trigram of the token in order of first
// occurrence (none for a token under three bytes), the FNV-1a hash of
// "g:" followed by the trigram's three bytes, weight 0.35. A feature with
// hash h adds its weight to bucket h mod 256, negated when bit 63 of h is
// set. The sums are float32 and run in exactly this order. The hashes
// continue from the precomputed states after "t:" and "g:", so no feature
// string is ever built: an Embed allocates only the vector it returns, and
// Similarity nothing.
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
