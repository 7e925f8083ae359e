package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"

	"pneuma/internal/table"
	"pneuma/internal/value"
)

// The generated corpus has the table shape of kramabench.Synthetic (name,
// description, 4-6 described columns, 8 rows) over a much wider vocabulary:
// genDomains × genNouns distinct (domain, noun) topics instead of 6 × 6, so
// BM25 posting lists have a spread of lengths and no query term matches a
// sixth of the corpus.
const (
	genDomains    = 48
	genNouns      = 12
	genColumns    = 6
	genRegions    = 16
	genRows       = 8
	domainWords   = 1 + genNouns + genColumns // words a query may draw from
	minQueryWords = 3
	maxQueryWords = 5
)

// domain is one vocabulary pool; every table draws its name, description and
// column vocabulary from a single domain, so queries about a domain have
// retrieval structure to find.
type domain struct {
	name    string
	nouns   []string
	columns []string
}

// vocabulary is the word stock of every corpus. It is the same for every
// seed: the seed decides which words each table and query draws, not what
// the words are, so two seeds give corpora of the same geometry and posting
// structure and their timings can be compared.
type vocabulary struct {
	domains []domain
	regions []string
}

var (
	onsets = []string{"b", "br", "d", "dr", "f", "g", "gl", "h", "k", "kr", "l", "m", "n", "p", "pl", "r", "t", "tr", "v", "z"}
	vowels = []string{"a", "e", "i", "o", "u", "ai", "ou"}
	codas  = []string{"", "", "l", "m", "n", "r", "x", "th"}
)

// pseudoWords draws n distinct pronounceable words of two or three
// syllables. None ends in a suffix the repo's stemmer strips, so a word is
// one term on both sides of the index.
func pseudoWords(rng *rand.Rand, n int, taken map[string]bool) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		var b strings.Builder
		for s, syl := 0, 2+rng.Intn(2); s < syl; s++ {
			b.WriteString(onsets[rng.Intn(len(onsets))])
			b.WriteString(vowels[rng.Intn(len(vowels))])
			b.WriteString(codas[rng.Intn(len(codas))])
		}
		w := b.String()
		if taken[w] || strings.HasSuffix(w, "s") || strings.HasSuffix(w, "ing") || strings.HasSuffix(w, "ed") {
			continue
		}
		taken[w] = true
		out = append(out, w)
	}
	return out
}

const vocabularySeed = 20260929

func newVocabulary() vocabulary {
	rng := rand.New(rand.NewSource(vocabularySeed))
	taken := map[string]bool{}
	v := vocabulary{regions: pseudoWords(rng, genRegions, taken)}
	for _, name := range pseudoWords(rng, genDomains, taken) {
		v.domains = append(v.domains, domain{
			name:    name,
			nouns:   pseudoWords(rng, genNouns, taken),
			columns: pseudoWords(rng, genColumns, taken),
		})
	}
	return v
}

// words lists the terms a query about this domain may use.
func (d domain) words() []string {
	out := make([]string, 0, domainWords)
	out = append(out, d.name)
	out = append(out, d.nouns...)
	return append(out, d.columns...)
}

// inputs is everything a workload hands to the program, derived from the
// seed alone.
type inputs struct {
	seed  int64
	vocab vocabulary
}

func newInputs(seed int64) *inputs {
	return &inputs{seed: seed, vocab: newVocabulary()}
}

// stream returns the random stream of one generator call. Every generator
// draws from its own stream, so each is a pure function of the seed and its
// arguments whatever was generated before it.
func (in *inputs) stream(purpose string, n int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", in.seed, purpose, n)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// serial is the one token that names a table and nothing else: letters and
// digits together survive the tokenizer as a single term.
func serial(i int) string { return fmt.Sprintf("t%05d", i) }

// tables generates n tables with serials first..first+n-1.
func (in *inputs) tables(first, n int) []*table.Table {
	rng := in.stream("tables", first)
	out := make([]*table.Table, n)
	for j := range out {
		i := first + j
		dom := in.vocab.domains[i%genDomains]
		noun := dom.nouns[rng.Intn(genNouns)]
		cols := []table.Column{
			{Name: "record_id", Type: value.KindInt, Description: "Unique record identifier"},
			{Name: "region", Type: value.KindString, Description: "Geographic region of the " + noun + " record"},
		}
		extra := 2 + rng.Intn(3)
		for c := 0; c < extra; c++ {
			cn := dom.columns[(i/genDomains+c)%genColumns]
			cols = append(cols, table.Column{
				Name:        cn + "_value",
				Type:        value.KindFloat,
				Description: fmt.Sprintf("Measured %s for the %s %s series", cn, dom.name, noun),
			})
		}
		t := table.New(table.Schema{
			Name:        fmt.Sprintf("%s_%s_%s", dom.name, noun, serial(i)),
			Description: fmt.Sprintf("%s %s records for the %s domain", dom.name, noun, dom.name),
			Columns:     cols,
		})
		for r := 0; r < genRows; r++ {
			row := table.Row{value.Int(int64(i*100 + r)), value.String(in.vocab.regions[rng.Intn(genRegions)])}
			for c := 0; c < extra; c++ {
				row = append(row, value.Float(math.Round(rng.Float64()*100000)/100))
			}
			t.MustAppend(row)
		}
		out[j] = t
	}
	return out
}

// corpus turns a table list into the map pneuma.New takes.
func corpus(ts []*table.Table) map[string]*table.Table {
	m := make(map[string]*table.Table, len(ts))
	for _, t := range ts {
		m[t.Schema.Name] = t
	}
	return m
}

// queries generates n pairwise distinct queries over tables with serials
// below nTables (lists of different purposes are independent draws): minQueryWords..maxQueryWords words of the target table's
// domain, none repeated, and the target's serial. Distinct strings are
// distinct IR cache keys, so the LRU misses on every one by itself.
func (in *inputs) queries(purpose string, n, nTables int) []string {
	return in.queriesOver(purpose, n, 0, nTables)
}

// queriesOver is queries over the tables with serials first..first+nTables-1.
func (in *inputs) queriesOver(purpose string, n, first, nTables int) []string {
	rng := in.stream("queries/"+purpose, nTables)
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		target := first + rng.Intn(nTables)
		words := in.vocab.domains[target%genDomains].words()
		rng.Shuffle(len(words), func(a, b int) { words[a], words[b] = words[b], words[a] })
		k := minQueryWords + rng.Intn(maxQueryWords-minQueryWords+1)
		q := strings.Join(words[:k], " ") + " " + serial(target)
		if seen[q] {
			continue
		}
		seen[q] = true
		out = append(out, q)
	}
	return out
}

// permuted returns the query with its words rotated by shift places: the
// same terms, so the same work in every layer, under a different cache key.
func permuted(q string, shift int) string {
	w := strings.Fields(q)
	shift %= len(w)
	return strings.Join(append(append([]string{}, w[shift:]...), w[:shift]...), " ")
}

// ownQuery builds the query that must find t: words of its own description.
func ownQuery(t *table.Table) string {
	return t.Schema.Description + " " + t.Schema.Name
}
