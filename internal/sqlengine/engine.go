package sqlengine

import (
	"sort"
	"strings"
	"sync"

	"pneuma/internal/table"
)

// Engine is the SQL executor facade: a catalog of in-memory tables, queried
// with the package's one scalar function table. It is the project's
// stand-in for DuckDB inside the Materializer's toolkit. Safe for concurrent
// use.
type Engine struct {
	mu     sync.RWMutex
	tables map[string]*table.Table // keyed by lower-case name
}

// NewEngine creates an engine with an empty catalog.
func NewEngine() *Engine {
	return &Engine{tables: make(map[string]*table.Table)}
}

// Register adds (or replaces) a table in the catalog under its schema name.
func (e *Engine) Register(t *table.Table) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tables[strings.ToLower(t.Schema.Name)] = t
}

// RegisterAs adds the table under an explicit name.
func (e *Engine) RegisterAs(name string, t *table.Table) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tables[strings.ToLower(name)] = t
}

// Table looks up a table by name (case-insensitive).
func (e *Engine) Table(name string) (*table.Table, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[strings.ToLower(name)]
	return t, ok
}

// Names returns the sorted catalog table names.
func (e *Engine) Names() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.tables))
	for n := range e.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (e *Engine) namesHint() string {
	names := e.Names()
	if len(names) == 0 {
		return "(catalog is empty)"
	}
	if len(names) > 20 {
		names = append(names[:20], "...")
	}
	return strings.Join(names, ", ")
}

// Query parses and executes one SELECT statement, returning the result as a
// new table named "result".
func (e *Engine) Query(sql string) (*table.Table, error) {
	sel, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.Exec(sel)
}

// Exec executes an already-parsed statement.
func (e *Engine) Exec(sel *Select) (*table.Table, error) {
	ex := &executor{engine: e}
	return ex.execSelect(sel)
}
