package textutil

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode"

	"pneuma/internal/racebuild"
)

// refTokenize, refStem, refNormalizeTokens and refTokenOverlap are the
// package's functions as they were before the token walker, kept verbatim
// as the definition the walker and its collectors must reproduce exactly.
func refTokenize(text string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
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
	return tokens
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

func refNormalizeTokens(text string) []string {
	raw := refTokenize(text)
	out := make([]string, 0, len(raw))
	for _, tok := range raw {
		if IsStopword(tok) {
			continue
		}
		out = append(out, refStem(tok))
	}
	return out
}

func refTokenOverlap(a, b string) float64 {
	ta := refNormalizeTokens(a)
	if len(ta) == 0 {
		return 0
	}
	tb := make(map[string]struct{})
	for _, t := range refNormalizeTokens(b) {
		tb[t] = struct{}{}
	}
	hit := 0
	for _, t := range ta {
		if _, ok := tb[t]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(ta))
}

// referenceTexts covers what the walker handles differently from the old
// rune loop: runes whose lowercase form has another byte length (İ, ẞ,
// the Kelvin sign), letters with no simple lowercase (ß, ſ), non-ASCII
// digits, invalid UTF-8, every stemming rule at and around its length
// threshold, stopword-only text, and tokens longer than the walker's stack
// buffer.
func referenceTexts() []string {
	texts := []string{
		"", "   ", "_", "Hello, World!", "k_ppm", "avg-potassium ppm", "a1b2",
		"What is the average of the samples?",
		"the of and is it a an", "THE Of AND",
		"studies flies ies ties cries classes glasses sses asses",
		"running sing bring string recorded red bed seed bus us gas ss moss",
		"İSTANBUL İies KELVİN Kelvin Kies STRAẞE straße ſtate ſies ǅungla",
		"ΣΊΣΥΦΟΣ Ärzte ÅNGSTRÖM 12°C ٣٤٥ Ⅻ ² ½ ７８ ｆｕｌｌ",
		"bad\xffutf8\xfe bytes\xc3 mid\xe2\x82token",
		strings.Repeat("x", 63) + " " + strings.Repeat("y", 64) + " " + strings.Repeat("Ä", 40) + "ies",
		strings.Repeat("abcdefghij", 30) + "ing " + strings.Repeat("q", 300) + "sses",
	}
	return append(texts, seededTexts(1, 400)...)
}

// seededTexts draws random texts from an alphabet weighted toward word
// characters, stemmable suffixes, stopwords and the length-changing runes.
func seededTexts(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	pieces := []string{
		"a", "e", "i", "s", "d", "g", "n", "u", "y", "Q", "Z", "0", "7",
		"ies", "sses", "ing", "ed", "us", "ss", "s", "the", "of", "and",
		"İ", "ß", "ſ", "K", "ẞ", "Σ", "٣", "½", "\xff",
		" ", " ", " ", "_", "-", ",", ".", "\n",
	}
	out := make([]string, n)
	for i := range out {
		var b strings.Builder
		for j := rng.Intn(60); j > 0; j-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		out[i] = b.String()
	}
	return out
}

// TestWalkerMatchesReference holds Tokenize, NormalizeTokens and
// TokenOverlap to their reference forms: equal slices (nil-ness included)
// and bit-equal overlaps, for phrases inside and past TokenOverlap's stack
// set.
func TestWalkerMatchesReference(t *testing.T) {
	texts := referenceTexts()
	for _, s := range texts {
		if got, want := Tokenize(s), refTokenize(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", s, got, want)
		}
		if got, want := NormalizeTokens(s), refNormalizeTokens(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("NormalizeTokens(%q) = %q, want %q", s, got, want)
		}
	}
	long := strings.Repeat("potassium samples ", overlapSet+1)
	wide := strings.Repeat("z", overlapBytes) + " potassium"
	phrases := append([]string{"potassium ppm", "sample studies", long, wide, "the of"}, texts[:120]...)
	descs := append([]string{"Potassium concentration in parts per million (ppm) of soil samples", long, wide}, texts...)
	for _, a := range phrases {
		for _, b := range descs {
			got, want := TokenOverlap(a, b), refTokenOverlap(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("TokenOverlap(%q, %q) = %v, want %v", a, b, got, want)
			}
		}
	}
}

// TestNormalizeTokensAllocs: one allocation for the result slice and one
// string per emitted token; stopwords and the token bytes cost nothing.
func TestNormalizeTokensAllocs(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	text := "The average potassium of the soil samples, in ppm, recorded per studied site; " +
		"a temperature_celsius reading is taken for each of the sampling stations."
	budget := float64(1 + len(NormalizeTokens(text)))
	if n := testing.AllocsPerRun(50, func() { NormalizeTokens(text) }); n > budget {
		t.Errorf("NormalizeTokens allocates %v times, want ≤ %v", n, budget)
	}
}

// TestTokenOverlapAllocs: a phrase of up to eight tokens is matched
// against a description without allocating.
func TestTokenOverlapAllocs(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	phrase := "average potassium concentration of soil samples in ppm per site"
	desc := "k ppm Potassium concentration in parts per million, measured in the soil samples of each excavation site"
	if n := testing.AllocsPerRun(50, func() { TokenOverlap(phrase, desc) }); n != 0 {
		t.Errorf("TokenOverlap allocates %v times, want 0", n)
	}
}
