package retriever

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pneuma/internal/docs"
)

// parityQueries exercises value literals, schema vocabulary and free text.
var parityQueries = []string{
	"freight container transit from port",
	"turbine output capacity",
	"warehouse stock levels and reorder",
	"rainfall readings by station",
	"portfolio yield and maturity",
	"Malta region records",
	"gross tonnage of vessels",
	"potassium in soil",
}

// mustSearch runs a query and fails the test on error.
func mustSearch(t *testing.T, r *Retriever, q string, k int) []docs.Document {
	t.Helper()
	hits, err := r.Search(context.Background(), q, k)
	if err != nil {
		t.Fatalf("search %q: %v", q, err)
	}
	return hits
}

// assertSameResults requires two result lists to agree exactly: same
// length, same IDs in the same order, bit-identical scores.
func assertSameResults(t *testing.T, label string, a, b []docs.Document) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: result counts differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("%s: rank %d: ID %q vs %q", label, i, a[i].ID, b[i].ID)
		}
		if a[i].Score != b[i].Score {
			t.Fatalf("%s: rank %d (%s): score %v vs %v", label, i, a[i].ID, a[i].Score, b[i].Score)
		}
	}
}

func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backend
		ok   bool
	}{
		{"", Memory, true},
		{"memory", Memory, true},
		{"disk", Disk, true},
		{"tape", "", false},
	} {
		got, err := ParseBackend(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Fatalf("ParseBackend(%q) = %q, %v", tc.in, got, err)
		}
	}
}

// TestMemoryDiskParity indexes the same corpus into both backends and
// requires identical search results in every retrieval mode.
func TestMemoryDiskParity(t *testing.T) {
	tables := corpusSlice(64)
	for _, mode := range []Mode{ModeHybrid, ModeVectorOnly, ModeBM25Only} {
		mem := New(WithMode(mode), WithShards(4))
		dsk, err := Open(WithMode(mode), WithShards(4), WithBackend(Disk), WithDir(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		defer dsk.Close()
		if err := mem.IndexTables(context.Background(), tables); err != nil {
			t.Fatal(err)
		}
		if err := dsk.IndexTables(context.Background(), tables); err != nil {
			t.Fatal(err)
		}
		for _, q := range parityQueries {
			assertSameResults(t, q, mustSearch(t, mem, q, 10), mustSearch(t, dsk, q, 10))
		}
	}
}

// TestDiskFlushReopenRoundTrip is the acceptance scenario: a 500-table
// synthetic corpus indexed into the disk backend, flushed, closed and
// reopened from its segment files must answer searches byte-identically to
// a memory-backed index over the same corpus, with all documents (and
// their structured table payloads) intact.
func TestDiskFlushReopenRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("500-table round trip skipped in -short mode")
	}
	tables := corpusSlice(500)
	dir := t.TempDir()

	mem := New(WithShards(6))
	if err := mem.IndexTables(context.Background(), tables); err != nil {
		t.Fatal(err)
	}

	dsk, err := Open(WithShards(6), WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := dsk.IndexTables(context.Background(), tables); err != nil {
		t.Fatal(err)
	}
	if err := dsk.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := dsk.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen from segments alone; deliberately omit WithShards — the
	// manifest must restore the original layout.
	re, err := Open(WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumShards() != 6 {
		t.Fatalf("reopened shard count = %d, want 6 from manifest", re.NumShards())
	}
	if re.Len() != len(tables) {
		t.Fatalf("reopened Len = %d, want %d", re.Len(), len(tables))
	}
	for _, q := range parityQueries {
		assertSameResults(t, q, mustSearch(t, mem, q, 10), mustSearch(t, re, q, 10))
	}
	// Structured payloads survive the round trip.
	for _, tb := range tables[:10] {
		d, ok := re.Document("table:" + tb.Schema.Name)
		if !ok {
			t.Fatalf("document for %s missing after reopen", tb.Schema.Name)
		}
		if d.Table == nil {
			t.Fatalf("table payload for %s lost in round trip", tb.Schema.Name)
		}
		if got, want := d.Table.Schema.String(), tb.Schema.String(); got != want {
			t.Fatalf("schema for %s: %s, want %s", tb.Schema.Name, got, want)
		}
		if d.Table.NumRows() != tb.NumRows() {
			t.Fatalf("rows for %s: %d, want %d", tb.Schema.Name, d.Table.NumRows(), tb.NumRows())
		}
	}
}

// TestDiskDeletePersists verifies tombstone records survive flush/reopen.
func TestDiskDeletePersists(t *testing.T) {
	tables := corpusSlice(32)
	dir := t.TempDir()
	dsk, err := Open(WithShards(4), WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := dsk.IndexTables(context.Background(), tables); err != nil {
		t.Fatal(err)
	}
	victim := "table:" + tables[0].Schema.Name
	if !deleteOne(dsk, victim) {
		t.Fatal("delete failed")
	}
	if err := dsk.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok := re.Document(victim); ok {
		t.Fatal("deleted document resurrected after reopen")
	}
	if re.Len() != len(tables)-1 {
		t.Fatalf("Len = %d, want %d", re.Len(), len(tables)-1)
	}
}

// TestDiskTornTailRecovery simulates a crash mid-append: garbage without a
// trailing newline after the last good record must be truncated away on
// reopen, keeping every whole record.
func TestDiskTornTailRecovery(t *testing.T) {
	tables := corpusSlice(16)
	dir := t.TempDir()
	dsk, err := Open(WithShards(2), WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := dsk.IndexTables(context.Background(), tables); err != nil {
		t.Fatal(err)
	}
	if err := dsk.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, "shard-000"+string(rune('0'+i))+".seg")
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"op":"add","id":"torn`); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	re, err := Open(WithBackend(Disk), WithDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(tables) {
		t.Fatalf("Len after torn-tail recovery = %d, want %d", re.Len(), len(tables))
	}
}

// TestGlobalBM25StatsParity is the ranking-parity guarantee: on a small
// corpus (where per-shard statistics would diverge hardest from global
// ones) a many-shard index must assign BM25 scores matching the unsharded
// single index within 1e-9.
func TestGlobalBM25StatsParity(t *testing.T) {
	tables := corpusSlice(32)
	single := New(WithMode(ModeBM25Only), WithShards(1))
	sharded := New(WithMode(ModeBM25Only), WithShards(8))
	if err := single.IndexTables(context.Background(), tables); err != nil {
		t.Fatal(err)
	}
	if err := sharded.IndexTables(context.Background(), tables); err != nil {
		t.Fatal(err)
	}
	for _, q := range parityQueries {
		a := mustSearch(t, single, q, 16)
		b := mustSearch(t, sharded, q, 16)
		if len(a) != len(b) {
			t.Fatalf("%q: result counts differ: %d vs %d", q, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				t.Fatalf("%q rank %d: ID %q vs %q", q, i, a[i].ID, b[i].ID)
			}
			if math.Abs(a[i].Score-b[i].Score) > 1e-9 {
				t.Fatalf("%q rank %d (%s): score %v vs %v diverges past 1e-9",
					q, i, a[i].ID, a[i].Score, b[i].Score)
			}
		}
	}
}

// TestGlobalStatsTrackDeletes verifies the shared statistics shrink when
// documents leave the index, keeping sharded scores aligned with a single
// index built over the surviving corpus.
func TestGlobalStatsTrackDeletes(t *testing.T) {
	tables := corpusSlice(24)
	sharded := New(WithMode(ModeBM25Only), WithShards(8))
	if err := sharded.IndexTables(context.Background(), tables); err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables[:8] {
		if !deleteOne(sharded, "table:"+tb.Schema.Name) {
			t.Fatalf("delete %s failed", tb.Schema.Name)
		}
	}
	single := New(WithMode(ModeBM25Only), WithShards(1))
	if err := single.IndexTables(context.Background(), tables[8:]); err != nil {
		t.Fatal(err)
	}
	for _, q := range parityQueries {
		a := mustSearch(t, single, q, 16)
		b := mustSearch(t, sharded, q, 16)
		if len(a) != len(b) {
			t.Fatalf("%q: result counts differ: %d vs %d", q, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID || math.Abs(a[i].Score-b[i].Score) > 1e-9 {
				t.Fatalf("%q rank %d: (%s %v) vs (%s %v)",
					q, i, a[i].ID, a[i].Score, b[i].ID, b[i].Score)
			}
		}
	}
}
