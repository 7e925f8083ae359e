package pneuma

import (
	"runtime"
	"time"

	"pneuma/internal/core"
	"pneuma/internal/docdb"
	"pneuma/internal/retriever"
	"pneuma/internal/websearch"
)

// Option configures New. Options are the single knob surface of the
// serving API; the README's knob reference lists each with its default.
type Option func(*settings)

// settings is the resolved configuration New assembles a Service from.
type settings struct {
	cfg           core.Config
	web           *websearch.Engine
	kb            *docdb.DB
	maxConcurrent int
	maxQueue      int
}

// DefaultMaxConcurrent returns the default request-scheduler width:
// GOMAXPROCS clamped to at least 4, mirroring the shard-count heuristic —
// enough concurrency to keep every core busy without unbounded fan-out
// amplification when many sessions arrive at once.
func DefaultMaxConcurrent() int {
	n := runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	return n
}

// WithModel sets the language model (default: the deterministic SimModel
// with the paper's o4-mini profile).
func WithModel(m Model) Option {
	return func(s *settings) { s.cfg.Model = m }
}

// WithMaxActions caps the Conductor's consecutive actions per turn (the
// paper's i = 5).
func WithMaxActions(n int) Option {
	return func(s *settings) { s.cfg.MaxActions = n }
}

// WithMaxRepairs bounds the Materializer's repair loop (default 3).
func WithMaxRepairs(n int) Option {
	return func(s *settings) { s.cfg.MaxRepairs = n }
}

// WithSpecialized toggles context specialization (default true; false is
// the §5.2 ablation).
func WithSpecialized(on bool) Option {
	return func(s *settings) { s.cfg.Specialized = &on }
}

// WithDynamicPlanning selects conductor-style orchestration (default
// true; false runs the fixed static pipeline of §3.5).
func WithDynamicPlanning(on bool) Option {
	return func(s *settings) { s.cfg.DynamicPlanning = &on }
}

// WithWebSearch attaches a web-search engine and enables the web
// retrieval source (the paper disables it for benchmarks; passing nil
// attaches the built-in synthetic engine).
func WithWebSearch(web *WebSearch) Option {
	return func(s *settings) {
		if web == nil {
			web = websearch.New(websearch.BuiltinCorpus())
		}
		s.web = web
		s.cfg.WebSearch = true
	}
}

// WithKnowledge attaches an existing Document Database, sharing captured
// knowledge across Services (a fresh one is created when this option is
// absent).
func WithKnowledge(kb *KnowledgeDB) Option {
	return func(s *settings) { s.kb = kb }
}

// index forwards one option to the table index New opens
// (core.Config.Index, handed to retriever.Open verbatim).
func index(o retriever.Option) Option {
	return func(s *settings) { s.cfg.Index = append(s.cfg.Index, o) }
}

// WithShards sets the table-index shard count (default: derived from
// GOMAXPROCS, clamped to [4,16]); see retriever.WithShards.
func WithShards(n int) Option { return index(retriever.WithShards(n)) }

// WithIndexWorkers sizes the embedding worker pool used by bulk corpus
// ingest (default GOMAXPROCS); see retriever.WithWorkers.
func WithIndexWorkers(n int) Option { return index(retriever.WithWorkers(n)) }

// WithBackend selects the table-index shard storage engine
// (BackendMemory, the default, or BackendDisk); see retriever.WithBackend.
func WithBackend(b Backend) Option { return index(retriever.WithBackend(b)) }

// WithIndexDir sets the segment directory for BackendDisk; opening a
// directory that already holds an index loads it instead of re-ingesting.
// See retriever.WithDir.
func WithIndexDir(dir string) Option { return index(retriever.WithDir(dir)) }

// WithEf sets the HNSW query beam width (default 64): larger values trade
// query latency for vector-search recall; see retriever.WithEf.
func WithEf(n int) Option { return index(retriever.WithEf(n)) }

// WithSyncBytes makes BackendDisk fsync a shard as soon as n bytes of
// records are pending on it instead of waiting out the latency bound, so
// concurrent writers share each disk barrier; 1 syncs after every record.
// Default 0 leaves the trigger unset; see retriever.WithSyncBytes.
func WithSyncBytes(n int64) Option { return index(retriever.WithSyncBytes(n)) }

// WithSyncInterval bounds how long an acknowledged BackendDisk write may
// stay unsynced (2ms when only WithSyncBytes is set; default 0 leaves
// durability to Flush/Close); see retriever.WithSyncInterval.
func WithSyncInterval(d time.Duration) Option { return index(retriever.WithSyncInterval(d)) }

// WithQuantize toggles the table index's int8 speed tier (default off):
// vector search traverses int8 vectors and rescores finalists in exact
// float32, so returned scores and ordering stay full precision. See
// retriever.WithQuantize.
func WithQuantize(on bool) Option { return index(retriever.WithQuantize(on)) }

// WithMmap makes BackendDisk memory-map snapshot files on open instead of
// reading them (default off). Results may alias the mapping, so documents
// returned by a mmap-backed service must not be retained after Close. See
// retriever.WithMmap.
func WithMmap(on bool) Option { return index(retriever.WithMmap(on)) }

// WithCompactionRatio sets the dead-record fraction beyond which
// BackendDisk rewrites a shard's segment to its live records at
// flush/close (default 0.5; negative disables); see
// retriever.WithCompactionRatio.
func WithCompactionRatio(ratio float64) Option { return index(retriever.WithCompactionRatio(ratio)) }

// WithMaxConcurrent bounds how many requests (Send and Search calls
// across all sessions) execute simultaneously; excess requests queue and
// are admitted as slots free, or leave the queue when their context is
// canceled. Default DefaultMaxConcurrent().
func WithMaxConcurrent(n int) Option {
	return func(s *settings) {
		if n > 0 {
			s.maxConcurrent = n
		}
	}
}

// WithMaxQueue bounds the scheduler's wait queue: at most n requests may
// be waiting for a slot at any moment, and the request that would be the
// n+1st is rejected immediately with a typed ErrOverloaded instead of
// queueing. Default 0 leaves the queue unbounded (the pre-shedding
// behavior), in which case a traffic spike queues arbitrarily deep and
// callers cannot distinguish "slow" from "drowning" — servers should set
// a bound and surface the rejection as backpressure (HTTP 503 with
// Retry-After in pneuma-server).
func WithMaxQueue(n int) Option {
	return func(s *settings) {
		if n > 0 {
			s.maxQueue = n
		}
	}
}
