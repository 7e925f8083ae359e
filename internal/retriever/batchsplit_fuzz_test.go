package retriever

import (
	"bytes"
	"fmt"
	"math/rand"
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

// applySplit applies ops to m in batches: a batch ends where the op kind
// changes (adds vs deletes) or where cut says so (bit i of cut ends a
// batch after op i). It returns the total DeleteBatch count.
func applySplit(t *testing.T, m *memoryBackend, ops []splitOp, cut func(i int) bool) int {
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
			removed += m.DeleteBatch(ids)
		} else {
			ds := make([]docs.Document, len(batch))
			vecs := make([][]float32, len(batch))
			for i, o := range batch {
				ds[i], vecs[i] = o.doc, o.vec
			}
			if err := m.IndexBatch(ds, vecs); err != nil {
				t.Fatal(err)
			}
		}
		start = end
	}
	return removed
}

// FuzzBatchSplit pins the invariant the whole write path rests on: a
// batch of n mutations leaves a shard exactly as n batches of one do. A
// fuzz-chosen program of adds, re-adds, deletes and deletes of missing
// IDs over a small document pool is applied to one memoryBackend in
// batches split at fuzz-chosen points, and to a second one op at a time;
// both must end with identical HNSW and BM25 snapshot bytes, identical
// corpus statistics, an identical document store and identical search
// results. The committed corpus (testdata/fuzz/FuzzBatchSplit) seeds a
// re-add inside one batch, an add followed by a delete of the same ID in
// the next batch, a delete of an absent ID and a 64-document batch.
func FuzzBatchSplit(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog, cuts []byte) {
		if len(prog) > 2*splitMaxOps {
			prog = prog[:2*splitMaxOps]
		}
		ops := decodeSplitProgram(prog)
		cut := func(i int) bool { return i/8 < len(cuts) && cuts[i/8]>>(i%8)&1 == 1 }
		one := func(int) bool { return true }

		stA, stB := bm25.NewStats(), bm25.NewStats()
		a := newMemoryBackend(splitDim, 1, stA, 0, false)
		b := newMemoryBackend(splitDim, 1, stB, 0, false)
		ra := applySplit(t, a, ops, cut)
		rb := applySplit(t, b, ops, one)
		if ra != rb {
			t.Fatalf("batched deletes removed %d, one-at-a-time %d", ra, rb)
		}

		var wa, wb wire.Writer
		a.vec.AppendSnapshot(&wa)
		b.vec.AppendSnapshot(&wb)
		if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
			t.Fatal("hnsw snapshots differ")
		}
		wa.Reset()
		wb.Reset()
		a.lex.AppendSnapshot(&wa)
		b.lex.AppendSnapshot(&wb)
		if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
			t.Fatal("bm25 snapshots differ")
		}

		if stA.DocCount() != stB.DocCount() || stA.AvgDocLen() != stB.AvgDocLen() {
			t.Fatalf("stats differ: (%d, %v) vs (%d, %v)", stA.DocCount(), stA.AvgDocLen(), stB.DocCount(), stB.AvgDocLen())
		}
		for _, w := range splitWords {
			for _, term := range textutil.NormalizeTokens(w) {
				if da, db := stA.DocFreq(term), stB.DocFreq(term); da != db {
					t.Fatalf("DocFreq(%q) = %d vs %d", term, da, db)
				}
			}
		}

		if a.Len() != b.Len() {
			t.Fatalf("Len = %d vs %d", a.Len(), b.Len())
		}
		for _, o := range ops {
			da, oka := a.Document(o.doc.ID)
			db, okb := b.Document(o.doc.ID)
			if oka != okb || !reflect.DeepEqual(da, db) {
				t.Fatalf("document %q: %v %+v vs %v %+v", o.doc.ID, oka, da, okb, db)
			}
		}
		for _, m := range []*memoryBackend{a, b} {
			n := 0
			m.byID.Range(func(any, any) bool { n++; return true })
			if n != m.Len() {
				t.Fatalf("document store holds %d, Len says %d", n, m.Len())
			}
		}

		for i, q := range []string{"river nitrate basin", "steel tariff", "trench artifact period site"} {
			if la, lb := a.SearchLexical(q, 10), b.SearchLexical(q, 10); !reflect.DeepEqual(la, lb) {
				t.Fatalf("SearchLexical(%q): %v vs %v", q, la, lb)
			}
			_, qv := splitDoc("query", -1-i)
			va, erra := a.SearchVector(qv, 10)
			vb, errb := b.SearchVector(qv, 10)
			if erra != nil || errb != nil || !reflect.DeepEqual(va, vb) {
				t.Fatalf("SearchVector: %v %v vs %v %v", va, erra, vb, errb)
			}
		}
	})
}
