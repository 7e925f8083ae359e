// Package server is the HTTP/JSON serving front end over pneuma.Service —
// the network layer that turns the in-process serving facade into a
// daemon (cmd/pneuma-server). It adds exactly the wire concerns and leaves
// scheduling, cancellation and typed errors to the substrate built for
// them:
//
//   - Routes: session lifecycle (POST /v1/sessions, POST
//     /v1/sessions/{id}/messages, DELETE /v1/sessions/{id}), retrieval
//     (GET /v1/search), live corpus mutation (POST /v1/tables, DELETE
//     /v1/tables), and the operational trio /healthz, /readyz, /metrics.
//
//   - Deadlines: every API request runs under a context deadline — the
//     ?timeout query parameter clamped by Config.MaxTimeout (default
//     Config.DefaultTimeout) — threaded through the Service into shard
//     fan-outs, model calls and queue waits, so a slow request cancels
//     promptly end to end.
//
//   - Status codes: the typed pnerr vocabulary maps exhaustively onto
//     HTTP via Status — ErrBadQuery 400, ErrCanceled 499 (client closed;
//     504 when the deadline fired), ErrClosed/ErrOverloaded/ErrIndexLocked
//     503 with Retry-After, ErrIndexCorrupt 500, ErrDegraded 200 with the
//     degraded marker (X-Pneuma-Degraded header and "degraded" body
//     field). A test iterates pnerr.Codes() so a new code cannot ship
//     without a mapping.
//
//   - Search reply: GET /v1/search writes its JSON body with a hand-written
//     append-style encoder into a pooled buffer — each hit's identity,
//     score and Document.AppendSummary text escaped straight in, one Write
//     — instead of building strings for encoding/json to reflect over. The
//     bytes are identical to what encoding/json's Encoder writes for the
//     same fields (HTML escaping, U+2028/U+2029, invalid UTF-8, the float
//     format switch), which FuzzSearchReply pins against encoding/json; every
//     other route still encodes with encoding/json.
//
//   - Limits: JSON request bodies are read through http.MaxBytesReader
//     (an oversize body is ErrBadQuery, 400), and Run's http.Server drops a
//     connection that has not delivered its request headers within
//     readHeaderTimeout.
//
//   - Streaming: long Seeker turns deliver incrementally over SSE
//     (?stream=sse or Accept: text/event-stream) — an accepted event on
//     admission, working heartbeats while the turn runs, then one reply
//     or error event; plain JSON otherwise.
//
//   - Load shedding: the Service's scheduler rejects with a typed
//     ErrOverloaded when its wait queue is at WithMaxQueue, and the
//     server itself sheds with 503 before enqueueing when the scheduler's
//     EstimatedWait exceeds Config.MaxEstimatedWait — so a saturated
//     daemon answers "come back later" in microseconds instead of letting
//     every client time out in line.
//
//   - Drain: Run serves until its context is canceled (SIGTERM in the
//     daemon), then stops admitting API requests (503 + Retry-After,
//     /readyz flips to 503 for load balancers), lets in-flight requests
//     finish up to Config.DrainTimeout, and finally closes the Service so
//     disk-backed indexes flush. /healthz stays 200 for the whole drain —
//     the process is alive, just not ready.
//
// Observability is Prometheus text format (stdlib only): request counters
// and latency histograms per route, the scheduler's queue-depth/in-flight
// gauges and admission counters, queue-wait totals, and the substrate's
// own meters — LLM token totals, retriever fsyncs and compaction runs —
// all read from one Service.Stats snapshot.
package server
