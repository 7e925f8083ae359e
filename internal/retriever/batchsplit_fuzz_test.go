package retriever

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pneuma/internal/bm25"
	"pneuma/internal/docs"
	"pneuma/internal/textutil"
	"pneuma/internal/wire"
)

// Op kinds of a FuzzBatchSplit program, one (kind, argument) byte pair
// per op; the kind byte is taken modulo 4.
const (
	splitAdd     = iota // add pool[arg], present or not
	splitReAdd          // re-add a present ID with new content
	splitDelete         // delete a present ID
	splitDelMiss        // delete an ID that is not present
)

// splitPool is the document pool a program draws its IDs from, splitDim
// the vector dimensionality of its documents, and splitMaxOps the longest
// program run (room for a 64-document batch, short enough to keep the
// fuzzer's throughput up).
const (
	splitPool   = 64
	splitDim    = 8
	splitMaxOps = 80
)

var splitWords = strings.Fields("river nitrate basin soil potassium sample " +
	"station rainfall yield bond tariff steel turbine output freight " +
	"manifest warehouse stock malta survey trench artifact period site")

// splitOp is one decoded mutation.
type splitOp struct {
	del bool
	doc docs.Document
	vec []float32
}

// splitDoc builds the document (and its vector) the i-th op adds under id:
// content and vector depend on both, so a re-add changes both.
func splitDoc(id string, i int) (docs.Document, []float32) {
	seed := int64(i)
	for _, c := range id {
		seed = seed*31 + int64(c)
	}
	rng := rand.New(rand.NewSource(seed))
	words := make([]string, 2+rng.Intn(6))
	for j := range words {
		words[j] = splitWords[rng.Intn(len(splitWords))]
	}
	vec := make([]float32, splitDim)
	for j := range vec {
		vec[j] = float32(rng.NormFloat64())
	}
	return docs.Document{ID: id, Kind: docs.KindKnowledge, Title: id, Content: strings.Join(words, " ")}, vec
}

// decodeSplitProgram turns fuzz bytes into an op sequence, tracking the
// live set so that re-adds and deletes target present IDs and deletes of
// missing IDs target absent ones.
func decodeSplitProgram(prog []byte) []splitOp {
	live := map[string]bool{}
	liveIDs := func() []string {
		ids := make([]string, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		return ids
	}
	var ops []splitOp
	for i := 0; i+1 < len(prog); i += 2 {
		kind, arg := int(prog[i]%4), int(prog[i+1])
		ids := liveIDs()
		if len(ids) == 0 {
			// Nothing present: a re-add becomes an add, a delete a miss.
			switch kind {
			case splitReAdd:
				kind = splitAdd
			case splitDelete:
				kind = splitDelMiss
			}
		}
		switch kind {
		case splitAdd, splitReAdd:
			id := fmt.Sprintf("doc-%02d", arg%splitPool)
			if kind == splitReAdd {
				id = ids[arg%len(ids)]
			}
			d, vec := splitDoc(id, len(ops))
			ops = append(ops, splitOp{doc: d, vec: vec})
			live[id] = true
		case splitDelete:
			id := ids[arg%len(ids)]
			ops = append(ops, splitOp{del: true, doc: docs.Document{ID: id}})
			delete(live, id)
		case splitDelMiss:
			id := fmt.Sprintf("doc-%02d", arg%splitPool)
			if live[id] {
				id = fmt.Sprintf("gone-%d", arg%4)
			}
			ops = append(ops, splitOp{del: true, doc: docs.Document{ID: id}})
		}
	}
	return ops
}

// applySplit applies ops to s in batches: a batch ends where the op kind
// changes (adds vs deletes) or where cut says so (bit i of cut ends a
// batch after op i). It returns the total deleteBatch count.
func applySplit(t *testing.T, s *shard, ops []splitOp, cut func(i int) bool) int {
	t.Helper()
	removed := 0
	for start := 0; start < len(ops); {
		end := start + 1
		for end < len(ops) && ops[end].del == ops[start].del && !cut(end-1) {
			end++
		}
		batch := ops[start:end]
		if batch[0].del {
			ids := make([]string, len(batch))
			for i, o := range batch {
				ids[i] = o.doc.ID
			}
			removed += s.deleteBatch(ids)
		} else {
			ds := make([]docs.Document, len(batch))
			vecs := make([][]float32, len(batch))
			for i, o := range batch {
				ds[i], vecs[i] = o.doc, o.vec
			}
			if err := s.indexBatch(ds, vecs); err != nil {
				t.Fatal(err)
			}
		}
		start = end
	}
	return removed
}

// assertSameShard fails the test unless got (counting BM25 statistics into
// stGot) holds exactly the state of want (into stWant): identical HNSW and
// BM25 snapshot bytes, identical corpus statistics, an identical document
// store and Len, and identical search results.
func assertSameShard(t *testing.T, label string, got, want *memoryBackend, stGot, stWant *bm25.Stats, ops []splitOp) {
	t.Helper()
	var wg, ww wire.Writer
	got.vec.AppendSnapshot(&wg)
	want.vec.AppendSnapshot(&ww)
	if !bytes.Equal(wg.Bytes(), ww.Bytes()) {
		t.Fatalf("%s: hnsw snapshots differ", label)
	}
	wg.Reset()
	ww.Reset()
	got.lex.AppendSnapshot(&wg)
	want.lex.AppendSnapshot(&ww)
	if !bytes.Equal(wg.Bytes(), ww.Bytes()) {
		t.Fatalf("%s: bm25 snapshots differ", label)
	}

	if stGot.DocCount() != stWant.DocCount() || stGot.AvgDocLen() != stWant.AvgDocLen() {
		t.Fatalf("%s: stats differ: (%d, %v) vs (%d, %v)", label, stGot.DocCount(), stGot.AvgDocLen(), stWant.DocCount(), stWant.AvgDocLen())
	}
	for _, w := range splitWords {
		for _, term := range textutil.NormalizeTokens(w) {
			if dg, dw := stGot.DocFreq(term), stWant.DocFreq(term); dg != dw {
				t.Fatalf("%s: DocFreq(%q) = %d vs %d", label, term, dg, dw)
			}
		}
	}

	if got.Len() != want.Len() {
		t.Fatalf("%s: Len = %d vs %d", label, got.Len(), want.Len())
	}
	for _, o := range ops {
		dg, okg := got.Document(o.doc.ID)
		dw, okw := want.Document(o.doc.ID)
		if okg != okw || !reflect.DeepEqual(dg, dw) {
			t.Fatalf("%s: document %q: %v %+v vs %v %+v", label, o.doc.ID, okg, dg, okw, dw)
		}
	}
	n := 0
	got.byID.Range(func(any, any) bool { n++; return true })
	if n != got.Len() {
		t.Fatalf("%s: document store holds %d, Len says %d", label, n, got.Len())
	}

	for i, q := range []string{"river nitrate basin", "steel tariff", "trench artifact period site"} {
		if lg, lw := got.lex.Search(q, 10), want.lex.Search(q, 10); !reflect.DeepEqual(lg, lw) {
			t.Fatalf("%s: lexical search %q: %v vs %v", label, q, lg, lw)
		}
		_, qv := splitDoc("query", -1-i)
		vg, errg := got.vec.Search(qv, 10)
		vw, errw := want.vec.Search(qv, 10)
		if errg != nil || errw != nil || !reflect.DeepEqual(vg, vw) {
			t.Fatalf("%s: vector search: %v %v vs %v %v", label, vg, errg, vw, errw)
		}
	}
}

// FuzzBatchSplit pins the invariant the whole write path rests on: a
// batch of n mutations leaves a shard exactly as n batches of one do, and
// the shard's log records exactly those mutations. A fuzz-chosen program
// of adds, re-adds, deletes and deletes of missing IDs over a small
// document pool is applied to a Disk shard (compaction off) in batches
// split at fuzz-chosen points, and to a Memory shard one op at a time.
// Three states must then equal the one-at-a-time shard (assertSameShard):
// the batched shard itself, a fresh index rebuilt by replaying its segment,
// and one loaded from the snapshot it writes. The committed corpus
// (testdata/fuzz/FuzzBatchSplit) seeds a re-add inside one batch, an add
// followed by a delete of the same ID in the next batch, a delete of an
// absent ID and a 64-document batch.
func FuzzBatchSplit(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog, cuts []byte) {
		if len(prog) > 2*splitMaxOps {
			prog = prog[:2*splitMaxOps]
		}
		ops := decodeSplitProgram(prog)
		cut := func(i int) bool { return i/8 < len(cuts) && cuts[i/8]>>(i%8)&1 == 1 }
		one := func(int) bool { return true }

		dir := t.TempDir()
		stA, stB := bm25.NewStats(), bm25.NewStats()
		log, err := openDiskBackend(filepath.Join(dir, "shard.seg"), filepath.Join(dir, "shard.snap"),
			splitDim, 1, stA, newGroupCommit(0, 0), compactionOff)
		if err != nil {
			t.Fatal(err)
		}
		defer log.Close()
		a := &shard{mem: log.mem, log: log}
		b := &shard{mem: newMemoryBackend(splitDim, 1, stB)}
		ra := applySplit(t, a, ops, cut)
		rb := applySplit(t, b, ops, one)
		if ra != rb {
			t.Fatalf("batched deletes removed %d, one-at-a-time %d", ra, rb)
		}
		assertSameShard(t, "batched", a.mem, b.mem, stA, stB, ops)

		if err := log.w.Flush(); err != nil {
			t.Fatal(err)
		}
		seg, err := os.Open(log.path)
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		stR := bm25.NewStats()
		replayed := newMemoryBackend(splitDim, 1, stR)
		if _, err := seg.Seek(segHeaderSize, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		n, recs, err := replayFrames(bufio.NewReader(seg), replayed)
		if err != nil || segHeaderSize+n != log.segSize || recs != log.records {
			t.Fatalf("replay: %d bytes, %d records, %v; segment holds %d bytes, %d records", segHeaderSize+n, recs, err, log.segSize, log.records)
		}
		assertSameShard(t, "replayed", replayed, b.mem, stR, stB, ops)

		if err := log.writeSnapshot(); err != nil {
			t.Fatal(err)
		}
		stS := bm25.NewStats()
		loaded, water, recs, err := loadSnapshot(log.snapPath, log.gen, log.segSize, splitDim, 1, stS)
		if err != nil || water != log.segSize || recs != log.records {
			t.Fatalf("snapshot load: watermark %d, %d records, %v; segment holds %d bytes, %d records", water, recs, err, log.segSize, log.records)
		}
		assertSameShard(t, "snapshot", loaded, b.mem, stS, stB, ops)
	})
}
