// Package core implements the paper's primary contribution: Pneuma-Seeker
// (§3) — the shared state (T, Q) that reifies an information need as a
// relational data model, the Conductor that plans dynamically over that
// state, the Materializer that populates T, and the Seeker session loop
// that converges the state toward the user's latent information need.
package core

import (
	"fmt"
	"strings"
	"sync"

	"pneuma/internal/llm"
	"pneuma/internal/table"
)

// State is the shared state (T, Q) of §3.1: T is a set of target tables
// (their specifications plus, once materialized, their contents) and Q is a
// sequence of SQL queries over T. The user and the system co-evolve this
// object; the interaction converges when it matches the latent need.
type State struct {
	mu sync.RWMutex
	// Specs are the current target-table definitions.
	Specs []llm.TableSpec
	// Queries is Q.
	Queries []string
	// Materialized maps spec names to populated tables once the
	// Materializer has run.
	Materialized map[string]*table.Table
	// LastResult is the output of the most recent execution of Q.
	LastResult *table.Table
	// Revision counts state modifications (for the UI and for tests).
	Revision int
}

// NewState returns an empty state.
func NewState() *State {
	return &State{Materialized: make(map[string]*table.Table)}
}

// SetModel replaces (T, Q) — the Conductor's "state modification" action.
// Materialization and results are dropped whichever of the two changed, so a
// revision of Q alone also sends the next turn back through the Materializer;
// the session's memo (planMemo) is what makes that cheap when the model plans
// the same integration again.
func (s *State) SetModel(specs []llm.TableSpec, queries []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Specs = specs
	s.Queries = queries
	s.Materialized = make(map[string]*table.Table)
	s.LastResult = nil
	s.Revision++
}

// SetMaterialized records a populated target table.
func (s *State) SetMaterialized(name string, t *table.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Materialized[name] = t
	s.Revision++
}

// SetResult records the latest execution result.
func (s *State) SetResult(t *table.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.LastResult = t
	s.Revision++
}

// IsMaterialized reports whether every spec in T has been populated.
func (s *State) IsMaterialized() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.Specs) == 0 {
		return false
	}
	for _, spec := range s.Specs {
		if _, ok := s.Materialized[spec.Name]; !ok {
			return false
		}
	}
	return true
}

// Info renders the state as the prompt/UI DTO. Materialized tables carry
// their real schemas; unmaterialized specs carry the planned columns.
func (s *State) Info(sampleVals int) llm.StateInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	info := llm.StateInfo{
		Queries: append([]string{}, s.Queries...),
		Specs:   append([]llm.TableSpec{}, s.Specs...),
	}
	for _, spec := range s.Specs {
		if t, ok := s.Materialized[spec.Name]; ok {
			info.Tables = append(info.Tables, llm.NewTableInfo(t, sampleVals))
			continue
		}
		ti := llm.TableInfo{Name: spec.Name}
		for _, c := range spec.Columns {
			ti.Columns = append(ti.Columns, llm.ColumnInfo{Name: c})
		}
		info.Tables = append(info.Tables, ti)
	}
	info.Materialized = s.isMaterializedLocked()
	if s.LastResult != nil {
		info.ResultPreview = s.LastResult.Render(5)
	}
	return info
}

func (s *State) isMaterializedLocked() bool {
	if len(s.Specs) == 0 {
		return false
	}
	for _, spec := range s.Specs {
		if _, ok := s.Materialized[spec.Name]; !ok {
			return false
		}
	}
	return true
}

// Answer extracts a scalar answer from the last result: the single cell of
// a 1×1 result, or the first cell of the first row otherwise.
func (s *State) Answer() (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r := s.LastResult
	if r == nil || r.NumRows() == 0 || r.NumCols() == 0 {
		return "", false
	}
	return r.Rows[0][0].String(), true
}

// View renders the state panel of the paper's Figure 2 (box 3): the target
// schemas with sample rows, and the queries in Q.
func (s *State) View() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var b strings.Builder
	b.WriteString("=== State (T, Q) ===\n")
	if len(s.Specs) == 0 {
		b.WriteString("T: (not yet defined)\n")
	}
	for _, spec := range s.Specs {
		fmt.Fprintf(&b, "T: %s", spec.Name)
		if t, ok := s.Materialized[spec.Name]; ok {
			fmt.Fprintf(&b, " [materialized, %d rows]\n", t.NumRows())
			b.WriteString(t.Render(5))
		} else {
			fmt.Fprintf(&b, " [planned] columns: %s\n", strings.Join(spec.Columns, ", "))
		}
	}
	if len(s.Queries) == 0 {
		b.WriteString("Q: (empty)\n")
	}
	for i, q := range s.Queries {
		fmt.Fprintf(&b, "Q[%d]: %s\n", i, q)
	}
	if s.LastResult != nil {
		b.WriteString("Last result:\n")
		b.WriteString(s.LastResult.Render(5))
	}
	return b.String()
}
