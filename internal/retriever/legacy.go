package retriever

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"pneuma/internal/bm25"
	"pneuma/internal/docs"
	"pneuma/internal/table"
	"pneuma/internal/value"
)

// Legacy (format-0) segment codec: the JSON-lines log written before the
// binary format existed. Kept read-only for migration — opening a legacy
// index replays its JSON log once, rewrites the segment in the binary
// format with a snapshot, and stamps the manifest, so the second open
// takes the fast path. The rewrite keeps only live records (a forced
// compaction): legacy tombstones and superseded adds do not survive
// migration, and cell values round-trip through the legacy canonical
// string encoding one last time.

// legacyRecord is one line of a legacy shard's JSON segment file.
type legacyRecord struct {
	Op  string     `json:"op"`
	ID  string     `json:"id"`
	Vec []float32  `json:"vec,omitempty"`
	Doc *legacyDoc `json:"doc,omitempty"`
}

// legacyDoc is the legacy durable form of docs.Document.
type legacyDoc struct {
	Kind    string            `json:"kind"`
	Title   string            `json:"title"`
	Content string            `json:"content"`
	Source  string            `json:"source"`
	Meta    map[string]string `json:"meta,omitempty"`
	Table   *legacyTable      `json:"table,omitempty"`
}

// legacyTable is the legacy durable table payload: schema metadata plus
// rows in canonical string encoding, decoded back through the declared
// column kinds.
type legacyTable struct {
	Name        string         `json:"name"`
	Description string         `json:"description,omitempty"`
	Columns     []legacyColumn `json:"columns"`
	Rows        [][]string     `json:"rows"`
}

// legacyColumn is one legacy durable schema column.
type legacyColumn struct {
	Name        string `json:"name"`
	Type        uint8  `json:"type"`
	Description string `json:"description,omitempty"`
	Unit        string `json:"unit,omitempty"`
}

// decodeLegacyDoc converts a legacy record back into a document.
func decodeLegacyDoc(id string, sd *legacyDoc) docs.Document {
	d := docs.Document{
		ID:      id,
		Kind:    docs.Kind(sd.Kind),
		Title:   sd.Title,
		Content: sd.Content,
		Source:  sd.Source,
		Meta:    sd.Meta,
	}
	if sd.Table != nil {
		schema := table.Schema{Name: sd.Table.Name, Description: sd.Table.Description}
		for _, c := range sd.Table.Columns {
			schema.Columns = append(schema.Columns, table.Column{
				Name: c.Name, Type: value.Kind(c.Type), Description: c.Description, Unit: c.Unit,
			})
		}
		t := table.New(schema)
		for _, rec := range sd.Table.Rows {
			row := make(table.Row, len(rec))
			for j, cell := range rec {
				coerced, ok := value.CoerceKind(value.Infer(cell), schema.Columns[j].Type)
				if !ok {
					coerced = value.Null()
				}
				row[j] = coerced
			}
			t.Rows = append(t.Rows, row)
		}
		d.Table = t
	}
	return d
}

// replayLegacySegment applies every whole JSON-lines record in f to mem.
// Torn or malformed tails end the replay silently, matching the legacy
// recovery behaviour.
func replayLegacySegment(f *os.File, mem *memoryBackend) error {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r := bufio.NewReaderSize(f, 1<<20)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		var rec legacyRecord
		if uerr := json.Unmarshal(line, &rec); uerr != nil {
			return nil
		}
		switch rec.Op {
		case "add":
			if rec.Doc == nil {
				return nil
			}
			if ierr := mem.Index(decodeLegacyDoc(rec.ID, rec.Doc), rec.Vec); ierr != nil {
				return ierr
			}
		case "del":
			mem.Delete(rec.ID)
		default:
			return nil
		}
	}
}

// openLegacyDiskBackend migrates a format-0 shard: the JSON log is
// replayed into memory, the segment is rewritten in the binary format
// (live records only, generation 1), the in-memory state is rebuilt to
// match a replay of the rewritten log, and a snapshot is written. The
// caller stamps the manifest once every shard has migrated — so a crash
// mid-migration can leave the manifest at format 0 with some shards
// already binary. Each shard is therefore sniffed for the binary magic
// first: an already-migrated shard takes the normal open path instead of
// being misread as an (empty-looking) JSON log and destroyed by the
// rewrite.
func openLegacyDiskBackend(path, snapPath string, dim int, seed int64, st *bm25.Stats, ef int, knobs diskKnobs) (*diskBackend, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	var magic [4]byte
	if _, err := f.ReadAt(magic[:], 0); err == nil && string(magic[:]) == segMagic {
		if err := f.Close(); err != nil {
			return nil, err
		}
		return openDiskBackend(path, snapPath, dim, seed, st, ef, knobs)
	}
	mem := newMemoryBackend(dim, seed, st, ef, knobs.quantize)
	if err := replayLegacySegment(f, mem); err != nil {
		f.Close()
		return nil, fmt.Errorf("retriever: legacy replay %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	size, recs, err := rewriteSegment(mem, path, 1)
	if err != nil {
		return nil, fmt.Errorf("retriever: migrate %s: %w", path, err)
	}
	if err := mem.compact(); err != nil {
		return nil, err
	}
	nf, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := nf.Seek(size, io.SeekStart); err != nil {
		nf.Close()
		return nil, err
	}
	b := &diskBackend{
		memoryBackend: mem,
		path:          path,
		snapPath:      snapPath,
		f:             nf,
		w:             bufio.NewWriterSize(nf, 1<<20),
		knobs:         knobs,
		gen:           1,
		segSize:       size,
		flushed:       size,
		records:       recs,
	}
	// A pre-binary index never has a snapshot; write one now so the next
	// open is a bulk load.
	if err := b.writeSnapshot(); err != nil {
		nf.Close()
		return nil, err
	}
	return b, nil
}
