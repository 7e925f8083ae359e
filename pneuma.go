package pneuma

import (
	"context"
	"io"

	"pneuma/internal/core"
	"pneuma/internal/docdb"
	"pneuma/internal/docs"
	"pneuma/internal/harness"
	"pneuma/internal/kramabench"
	"pneuma/internal/llm"
	"pneuma/internal/retriever"
	"pneuma/internal/sqlengine"
	"pneuma/internal/table"
	"pneuma/internal/websearch"
)

// Core system types.
type (
	// Seeker is the assembled Pneuma-Seeker system (paper Figure 1).
	Seeker = core.Seeker
	// Session is one user's conversation with shared state (T, Q).
	Session = core.Session
	// Reply is one user-facing turn outcome, including the state view.
	Reply = core.Reply
	// State is the shared (T, Q) state object.
	State = core.State
)

// Substrate types.
type (
	// Table is the in-memory relational table.
	Table = table.Table
	// Schema describes a table's columns.
	Schema = table.Schema
	// Column is one schema attribute.
	Column = table.Column
	// Engine is the SQL executor over in-memory tables.
	Engine = sqlengine.Engine
	// Retriever is the hybrid (HNSW + BM25) table-discovery index.
	Retriever = retriever.Retriever
	// KnowledgeDB is the Document Database for captured domain knowledge.
	KnowledgeDB = docdb.DB
	// WebSearch is the (simulated) web search engine.
	WebSearch = websearch.Engine
	// Model is the language-model interface agents depend on.
	Model = llm.Model
	// Question is one benchmark item with its oracle answer.
	Question = kramabench.Question
	// Document is one retrievable unit (a table, a knowledge note or a
	// web page) as returned by Service.Search and the retrievers.
	Document = docs.Document
)

// NewEngine creates an empty SQL engine.
func NewEngine() *Engine { return sqlengine.NewEngine() }

// NewRetriever creates an empty hybrid retrieval index with default
// sharding (GOMAXPROCS-derived) and the in-memory backend.
func NewRetriever() *Retriever { return retriever.New() }

// Backend selects the shard storage engine of the hybrid index.
type Backend = retriever.Backend

// The available shard storage backends.
const (
	// BackendMemory keeps every shard in RAM (the default).
	BackendMemory = retriever.Memory
	// BackendDisk persists every shard to an append-only segment file,
	// reloaded on open; Retriever.Flush/Close make writes durable.
	BackendDisk = retriever.Disk
)

// ParseBackend converts a user-supplied string ("memory", "disk", or empty
// for the default) into a Backend.
func ParseBackend(s string) (Backend, error) { return retriever.ParseBackend(s) }

// NewKnowledgeDB creates an empty knowledge store.
func NewKnowledgeDB() *KnowledgeDB { return docdb.New() }

// NewWebSearch creates the simulated web search engine over the built-in
// synthetic corpus (tariff schedules plus distractors).
func NewWebSearch() *WebSearch { return websearch.New(websearch.BuiltinCorpus()) }

// NewSimModel creates the deterministic rule-engine language model with the
// given pricing-catalog profile ("o4-mini", "o3", "gpt-4o", ...).
func NewSimModel(profile string) Model {
	return llm.NewSimModel(llm.WithProfile(profile))
}

// ReadCSV parses a CSV stream into a Table (header row first, types
// inferred).
func ReadCSV(name string, r io.Reader) (*Table, error) { return table.ReadCSV(name, r) }

// LoadDir loads every *.csv in a directory into a corpus map.
func LoadDir(dir string) (map[string]*Table, error) { return table.LoadDir(dir) }

// ArchaeologyDataset generates the synthetic archaeology benchmark dataset
// (5 tables, Table 1 shape).
func ArchaeologyDataset() map[string]*Table { return kramabench.Archaeology() }

// EnvironmentDataset generates the synthetic environment benchmark dataset
// (36 tables, Table 1 shape).
func EnvironmentDataset() map[string]*Table { return kramabench.Environment() }

// SyntheticDataset generates an n-table domain-structured corpus for
// ingest and retrieval scale testing (seeded, deterministic).
func SyntheticDataset(n int) map[string]*Table { return kramabench.Synthetic(n) }

// ArchaeologyQuestions returns the 12 archaeology benchmark questions with
// oracle answers.
func ArchaeologyQuestions(corpus map[string]*Table) []Question {
	return kramabench.ArchaeologyQuestions(corpus)
}

// EnvironmentQuestions returns the 20 environment benchmark questions with
// oracle answers.
func EnvironmentQuestions(corpus map[string]*Table) []Question {
	return kramabench.EnvironmentQuestions(corpus)
}

// Evaluation is the complete per-dataset result set (RQ1 + RQ2 + tokens).
type Evaluation = harness.DatasetEvaluation

// RunFullEvaluation reproduces the paper's §4 for one dataset: Figure 4/5
// convergence, Table 2 token usage, Table 3 accuracy and the O3 in-text
// result. The context bounds the whole sweep; cancellation aborts between
// conversations.
func RunFullEvaluation(ctx context.Context, dataset string, corpus map[string]*Table, questions []Question) (Evaluation, error) {
	return harness.RunFullEvaluation(ctx, dataset, corpus, questions, harness.EvalOptions{})
}
