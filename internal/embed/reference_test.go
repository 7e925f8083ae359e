package embed_test

import (
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unicode"

	"pneuma/internal/docs"
	"pneuma/internal/embed"
	"pneuma/internal/kramabench"
	"pneuma/internal/racebuild"
	"pneuma/internal/table"
	"pneuma/internal/textutil"
	"pneuma/internal/vecmath"
)

// refEmbed is Embed as it was before the token walker, kept verbatim with
// the tokenizer, stemmer and n-gram extractor it called: one fnv.New64a
// per feature over the concatenated "t:"+token / "g:"+gram string. The
// walker-fed Embed must reproduce its vectors bit for bit.
func refEmbed(text string) []float32 {
	v := make([]float32, embed.DefaultDim)
	for _, tok := range refNormalizeTokens(text) {
		refAdd(v, "t:"+tok, 1.0)
		for _, g := range refCharNGrams(tok, 3) {
			refAdd(v, "g:"+g, 0.35)
		}
	}
	vecmath.Normalize(v)
	return v
}

func refAdd(v []float32, feature string, w float32) {
	h := fnv.New64a()
	_, _ = h.Write([]byte(feature))
	sum := h.Sum64()
	bucket := int(sum % embed.DefaultDim)
	if (sum>>63)&1 == 1 {
		w = -w
	}
	v[bucket] += w
}

func refCharNGrams(tok string, n int) []string {
	if n <= 0 || len(tok) < n {
		return nil
	}
	seen := make(map[string]struct{}, len(tok))
	var out []string
	for i := 0; i+n <= len(tok); i++ {
		g := tok[i : i+n]
		if _, dup := seen[g]; dup {
			continue
		}
		seen[g] = struct{}{}
		out = append(out, g)
	}
	return out
}

func refNormalizeTokens(text string) []string {
	var raw []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			raw = append(raw, b.String())
			b.Reset()
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r):
			b.WriteRune(unicode.ToLower(r))
		case unicode.IsDigit(r):
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	out := make([]string, 0, len(raw))
	for _, tok := range raw {
		if textutil.IsStopword(tok) {
			continue
		}
		out = append(out, refStem(tok))
	}
	return out
}

func refStem(tok string) string {
	n := len(tok)
	switch {
	case n > 4 && strings.HasSuffix(tok, "ies"):
		return tok[:n-3] + "y"
	case n > 5 && strings.HasSuffix(tok, "sses"):
		return tok[:n-2]
	case n > 3 && strings.HasSuffix(tok, "s") && !strings.HasSuffix(tok, "ss") && !strings.HasSuffix(tok, "us"):
		return tok[:n-1]
	}
	if n > 6 && strings.HasSuffix(tok, "ing") {
		return tok[:n-3]
	}
	if n > 5 && strings.HasSuffix(tok, "ed") {
		return tok[:n-2]
	}
	return tok
}

// referenceTexts is every kramabench table document, a synthetic corpus's
// documents, the benchmark questions' topics and measure phrases, and
// seeded strings aimed at the walker's edges: runes whose lowercase form
// changes byte length (İ, ẞ, the Kelvin sign U+212A), ß and ſ, digits,
// tokens with more trigram positions than the stack set holds, every
// stemming rule, and stopword-only text.
func referenceTexts() []string {
	var texts []string
	addTables := func(m map[string]*table.Table) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			texts = append(texts, docs.TableDocument(m[n]).Content)
		}
	}
	arch, env := kramabench.Archaeology(), kramabench.Environment()
	addTables(arch)
	addTables(env)
	for _, t := range kramabench.SyntheticSlice(200) {
		texts = append(texts, docs.TableDocument(t).Content)
	}
	for _, q := range append(kramabench.ArchaeologyQuestions(arch), kramabench.EnvironmentQuestions(env)...) {
		texts = append(texts, q.Need.Topic, q.Need.MeasurePhrase)
	}
	texts = append(texts, "", "the of and is it", "THE, Of; and.",
		"studies flies ies classes glasses sses running sing recorded red us bus ss moss",
		"İSTANBUL İies \u212aELVIN \u212aies \u212a STRAẞE straße ſtate ſies 12°C ٣٤٥ Ⅻ ½ ７８",
		"bad\xffutf8\xfe bytes\xc3 mid\xe2\x82token",
		strings.Repeat("abcdefghijklmnopqrstuvwxyz", 3)+" "+strings.Repeat("ab", 40)+" "+strings.Repeat("Ä", 50)+"ing",
	)
	rng := rand.New(rand.NewSource(1))
	pieces := []string{
		"a", "b", "e", "i", "s", "d", "g", "n", "u", "y", "Q", "0", "7",
		"ies", "sses", "ing", "ed", "us", "ss", "the", "of",
		"İ", "ß", "ſ", "\u212a", "ẞ", "Σ", "٣", "½",
		" ", " ", " ", "_", "-", ",",
	}
	for i := 0; i < 2000; i++ {
		var b strings.Builder
		for j := rng.Intn(80); j > 0; j-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		texts = append(texts, b.String())
	}
	return texts
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestEmbedMatchesReference holds Embed and Similarity to the reference
// bit for bit.
func TestEmbedMatchesReference(t *testing.T) {
	e := embed.New()
	texts := referenceTexts()
	refs := make([][]float32, len(texts))
	for i, s := range texts {
		refs[i] = refEmbed(s)
		if got := e.Embed(s); !sameBits(got, refs[i]) {
			t.Fatalf("Embed(%q) differs from the reference", s)
		}
	}
	for i := 0; i+1 < len(texts); i += 7 {
		got, want := e.Similarity(texts[i], texts[i+1]), vecmath.Cosine(refs[i], refs[i+1])
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("Similarity(%q, %q) = %v, want %v", texts[i], texts[i+1], got, want)
		}
	}
}

// embedSink keeps TestEmbedAllocs's vector: a result the closure dropped
// could stay on the stack once Embed is inlined, and the test would no
// longer measure the vector Embed returns.
var embedSink []float32

// TestEmbedAllocs: Embed allocates only the vector it returns, and
// Similarity nothing.
func TestEmbedAllocs(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	e := embed.New()
	doc := docs.TableDocument(kramabench.Archaeology()["soil_samples"]).Content
	if n := testing.AllocsPerRun(20, func() { embedSink = e.Embed(doc) }); n != 1 {
		t.Errorf("Embed allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(20, func() { e.Similarity("potassium ppm", doc) }); n != 0 {
		t.Errorf("Similarity allocates %v times, want 0", n)
	}
}

// FuzzEmbedMatchesReference holds the walker-fed Embed, NormalizeTokens
// and Similarity to the reference on arbitrary text.
func FuzzEmbedMatchesReference(f *testing.F) {
	f.Add("potassium ppm", "Potassium concentration in parts per million")
	f.Add("İies straße", "Kelvin ſtudies")
	e := embed.New()
	f.Fuzz(func(t *testing.T, a, b string) {
		ra, rb := refEmbed(a), refEmbed(b)
		if !sameBits(e.Embed(a), ra) {
			t.Fatalf("Embed(%q) differs from the reference", a)
		}
		if got, want := textutil.NormalizeTokens(a), refNormalizeTokens(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("NormalizeTokens(%q) = %q, want %q", a, got, want)
		}
		if got, want := e.Similarity(a, b), vecmath.Cosine(ra, rb); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("Similarity(%q, %q) = %v, want %v", a, b, got, want)
		}
	})
}
