package bm25

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pneuma/internal/textutil"
	"pneuma/internal/wire"
)

// naiveBM25 is the from-scratch reference the index is held to: per
// shard, a map of live document ID → tokens, and nothing else. Corpus
// statistics are recounted by scanning every shard's live documents on
// each query, and a document's score is summed over the query's distinct
// terms in sorted order — the order that fixes the index's float
// accumulation. No posting list, slot, term table or Stats is involved.
type naiveBM25 struct {
	params Params
	shards []map[string][]string
}

func newNaiveBM25(shards int) *naiveBM25 {
	n := &naiveBM25{params: Params{}.withDefaults(), shards: make([]map[string][]string, shards)}
	for i := range n.shards {
		n.shards[i] = map[string][]string{}
	}
	return n
}

// corpusStats scans every live document of every shard: the document
// count, the total token length and each term's document frequency.
func (n *naiveBM25) corpusStats() (docs, totalLen int, df map[string]int) {
	df = map[string]int{}
	for _, live := range n.shards {
		for _, toks := range live {
			docs++
			totalLen += len(toks)
			seen := map[string]bool{}
			for _, tok := range toks {
				if !seen[tok] {
					seen[tok] = true
					df[tok]++
				}
			}
		}
	}
	return docs, totalLen, df
}

// search ranks shard's live documents for query against the statistics
// of the whole corpus: score descending, ID ascending, top k, documents
// with no query term left out.
func (n *naiveBM25) search(shard int, query string, k int) []Result {
	docs, totalLen, df := n.corpusStats()
	avgLen := 1.0
	if docs > 0 && totalLen > 0 {
		avgLen = float64(totalLen) / float64(docs)
	}
	q := textutil.NormalizeTokens(query)
	sort.Strings(q)
	k1, b := n.params.K1, n.params.B
	var out []Result
	for id, toks := range n.shards[shard] {
		score, hit := 0.0, false
		norm := k1 * (1 - b + b*float64(len(toks))/avgLen)
		for i := 0; i < len(q); {
			j := i + 1
			for j < len(q) && q[j] == q[i] {
				j++
			}
			qw, term := float64(j-i), q[i]
			i = j
			f := 0
			for _, tok := range toks {
				if tok == term {
					f++
				}
			}
			if f == 0 {
				continue
			}
			d := float64(df[term])
			idf := math.Log(1 + (float64(docs)-d+0.5)/(d+0.5))
			tf := float64(f)
			score += qw * idf * (tf * (k1 + 1)) / (tf + norm)
			hit = true
		}
		if hit {
			out = append(out, Result{ID: id, Score: score})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Op kinds of a naive-oracle program, one (kind, argument) byte pair per
// op; the kind byte is taken modulo 7.
const (
	naiveAdd      = iota // queue pool[arg] for its shard's next add batch
	naiveReAdd           // queue a live ID with new text
	naiveDelete          // delete a live ID
	naiveDelMiss         // delete an ID that is not present
	naiveFlush           // apply the queued adds and check every shard
	naiveSnapshot        // round-trip every shard through its snapshot
	naiveAdopt           // rebuild shard arg over its live documents and adopt it
	naiveKinds
)

// naivePool is the number of IDs a program draws from; naiveMaxOps the
// longest program run.
const (
	naivePool   = 48
	naiveMaxOps = 96
)

var naiveWords = strings.Fields("river nitrate basin soil potassium sample " +
	"station rainfall yield bond tariff steel turbine output freight the of")

var naiveQueries = []string{"river nitrate basin", "river river soil", "tariff",
	"steel tariff steel yield", "freight output turbine station sample",
	"u3 u17 rainfall", "the of", "zebra"}

// naiveText builds the text the i-th op adds: a few words of a small
// vocabulary (repeats give term frequencies above one; stopwords and the
// odd empty text give short and empty documents) and, now and then, a
// token no other op uses, so the vocabulary keeps growing.
func naiveText(id string, i int) string {
	seed := int64(i)
	for _, c := range id {
		seed = seed*31 + int64(c)
	}
	rng := rand.New(rand.NewSource(seed))
	words := make([]string, rng.Intn(9))
	for j := range words {
		words[j] = naiveWords[rng.Intn(len(naiveWords))]
	}
	if rng.Intn(3) == 0 {
		words = append(words, fmt.Sprintf("u%d", i))
	}
	return strings.Join(words, " ")
}

// naiveRun drives nshards indexes sharing one Stats object (a private
// one when nshards is 1) and the reference through the same program.
type naiveRun struct {
	t      *testing.T
	ixs    []*Index
	ref    *naiveBM25
	owner  map[string]int    // live ID → shard
	texts  map[string]string // live ID → text
	seen   map[string]bool   // every term ever indexed, for the DocFreq checks
	queued [][2][]string     // per shard: queued add IDs and texts
}

func newNaiveRun(t *testing.T, nshards int) *naiveRun {
	r := &naiveRun{t: t, ixs: make([]*Index, nshards), ref: newNaiveBM25(nshards),
		owner: map[string]int{}, texts: map[string]string{}, seen: map[string]bool{}, queued: make([][2][]string, nshards)}
	st := NewStats()
	for i := range r.ixs {
		if nshards == 1 {
			r.ixs[i] = New(Params{})
		} else {
			r.ixs[i] = NewWithStats(Params{}, st)
		}
	}
	return r
}

func (r *naiveRun) liveIDs() []string {
	ids := make([]string, 0, len(r.owner))
	for id := range r.owner {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// add queues id's new text for its shard's next batch and applies it to
// the reference at once: the two only meet at a check, after a flush.
func (r *naiveRun) add(id string, shard, op int) {
	text := naiveText(id, op)
	q := &r.queued[shard]
	q[0], q[1] = append(q[0], id), append(q[1], text)
	toks := textutil.NormalizeTokens(text)
	r.ref.shards[shard][id] = toks
	for _, tok := range toks {
		r.seen[tok] = true
	}
	r.owner[id] = shard
	r.texts[id] = text
}

func (r *naiveRun) flush() {
	for s, q := range r.queued {
		r.ixs[s].AddBatch(q[0], q[1])
		r.queued[s] = [2][]string{}
	}
}

func (r *naiveRun) delete(id string, shard int, present bool) {
	r.flush()
	want := 0
	if present {
		want = 1
		delete(r.ref.shards[shard], id)
		delete(r.owner, id)
		delete(r.texts, id)
	}
	if got := r.ixs[shard].DeleteBatch([]string{id}); got != want {
		r.t.Fatalf("DeleteBatch(%q) = %d, want %d", id, got, want)
	}
}

// snapshot replaces every shard by one restored from its snapshot: a
// lone index against its own restored Stats, shards against a fresh
// shared Stats they attach to, the way the retriever restores them. The
// restored index must write the same bytes.
func (r *naiveRun) snapshot() {
	r.flush()
	st := NewStats()
	for s, ix := range r.ixs {
		var a, b wire.Writer
		ix.AppendSnapshot(&a)
		re := New(Params{})
		if err := re.LoadSnapshot(wire.NewSharedReader(a.Bytes())); err != nil {
			r.t.Fatal(err)
		}
		if len(r.ixs) > 1 {
			re.AttachStats(st)
		}
		re.AppendSnapshot(&b)
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			r.t.Fatalf("shard %d: restored index writes a different snapshot", s)
		}
		r.ixs[s] = re
	}
}

// adopt rebuilds shard over its live documents against a private Stats
// and installs the rebuild with AdoptFrom, as segment compaction does.
func (r *naiveRun) adopt(shard int) {
	r.flush()
	var ids, texts []string
	for _, id := range r.liveIDs() {
		if r.owner[id] == shard {
			ids, texts = append(ids, id), append(texts, r.texts[id])
		}
	}
	shadow := NewWithStats(Params{}, nil)
	shadow.AddBatch(ids, texts)
	r.ixs[shard].AdoptFrom(shadow)
}

// check requires every shard to rank every query exactly as the
// reference does, bit for bit, and the Stats object to hold the scanned
// corpus statistics.
func (r *naiveRun) check() {
	r.t.Helper()
	r.flush()
	docs, totalLen, df := r.ref.corpusStats()
	st := r.ixs[0].view.Load().stats
	if st.DocCount() != docs {
		r.t.Fatalf("Stats.DocCount = %d, scanned %d", st.DocCount(), docs)
	}
	if docs > 0 && totalLen > 0 && st.AvgDocLen() != float64(totalLen)/float64(docs) {
		r.t.Fatalf("Stats.AvgDocLen = %v, scanned %d/%d", st.AvgDocLen(), totalLen, docs)
	}
	for term := range r.seen {
		if got := st.DocFreq(term); got != df[term] {
			r.t.Fatalf("Stats.DocFreq(%q) = %d, scanned %d", term, got, df[term])
		}
	}
	for s, ix := range r.ixs {
		if ix.Len() != len(r.ref.shards[s]) {
			r.t.Fatalf("shard %d: Len = %d, reference holds %d", s, ix.Len(), len(r.ref.shards[s]))
		}
		for _, q := range naiveQueries {
			for _, k := range []int{3, naivePool} {
				got, want := ix.Search(q, k), r.ref.search(s, q, k)
				if len(got) != len(want) {
					r.t.Fatalf("shard %d, %q top %d: %d results, reference %d:\n%v\n%v", s, q, k, len(got), len(want), got, want)
				}
				for i := range got {
					if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
						r.t.Fatalf("shard %d, %q top %d, rank %d: %+v, reference %+v", s, q, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// runNaiveProgram decodes prog into ops, applies them to the indexes and
// the reference, and checks the two agree after every flush, snapshot
// and adopt, and at the end.
func runNaiveProgram(t *testing.T, nshards int, prog []byte) {
	r := newNaiveRun(t, nshards)
	for i := 0; i+1 < len(prog); i += 2 {
		kind, arg := int(prog[i])%naiveKinds, int(prog[i+1])
		ids := r.liveIDs()
		if len(ids) == 0 {
			// Nothing present: a re-add becomes an add, a delete a miss.
			switch kind {
			case naiveReAdd:
				kind = naiveAdd
			case naiveDelete:
				kind = naiveDelMiss
			}
		}
		switch kind {
		case naiveAdd:
			r.add(fmt.Sprintf("doc-%02d", arg%naivePool), arg%naivePool%nshards, i)
		case naiveReAdd:
			id := ids[arg%len(ids)]
			r.add(id, r.owner[id], i)
		case naiveDelete:
			id := ids[arg%len(ids)]
			r.delete(id, r.owner[id], true)
		case naiveDelMiss:
			id := fmt.Sprintf("gone-%d", arg%4)
			r.delete(id, arg%nshards, false)
		case naiveFlush:
			r.check()
		case naiveSnapshot:
			r.snapshot()
			r.check()
		case naiveAdopt:
			r.adopt(arg % nshards)
			r.check()
		}
	}
	r.check()
}

// TestSearchMatchesNaiveBM25 holds Search and the Stats counts to the
// naive reference over seeded programs of adds, in-batch and cross-batch
// re-adds, deletes, snapshot round trips and AdoptFrom installs, on one
// index and on four indexes sharing one Stats.
func TestSearchMatchesNaiveBM25(t *testing.T) {
	programs := 12
	if testing.Short() {
		programs = 4
	}
	for _, nshards := range []int{1, 4} {
		for seed := int64(1); seed <= int64(programs); seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", nshards, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				prog := make([]byte, 2*naiveMaxOps)
				rng.Read(prog)
				// Every program ends by exercising both installs.
				prog = append(prog, naiveSnapshot, 0, naiveAdopt, byte(seed), naiveAdd, 1)
				runNaiveProgram(t, nshards, prog)
			})
		}
	}
}

// FuzzSearchMatchesNaive runs fuzz-chosen programs through the same
// driver: shards picks one to four indexes, prog is the op program. The
// committed corpus (testdata/fuzz/FuzzSearchMatchesNaive) seeds a re-add
// inside one batch, a snapshot followed by mutations, an adopt followed
// by adds, and empty documents.
func FuzzSearchMatchesNaive(f *testing.F) {
	f.Fuzz(func(t *testing.T, shards byte, prog []byte) {
		if len(prog) > 2*naiveMaxOps {
			prog = prog[:2*naiveMaxOps]
		}
		runNaiveProgram(t, 1+int(shards%4), prog)
	})
}
