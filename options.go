package pneuma

import (
	"runtime"

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

// WithBackend selects the table-index shard storage engine
// (BackendMemory, the default, or BackendDisk); see retriever.WithBackend.
func WithBackend(b Backend) Option { return index(retriever.WithBackend(b)) }

// WithIndexDir sets the segment directory for BackendDisk; opening a
// directory that already holds an index loads it instead of re-ingesting.
// See retriever.WithDir.
func WithIndexDir(dir string) Option { return index(retriever.WithDir(dir)) }

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
