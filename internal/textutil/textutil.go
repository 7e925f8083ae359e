// Package textutil provides the text primitives shared by the BM25 index,
// the embedding model and the simulated language skills: tokenization,
// stopword filtering, a light suffix stemmer and string similarity
// measures.
//
// # The token walker
//
// There is one tokenizer: Walker. It steps through a text rune by rune,
// lowercases letters into a caller-supplied buffer (a stack array in every
// caller here), and yields each token's bytes without allocating. Letters
// and digits form tokens; every other rune, underscores included,
// separates them. A normalizing walker (Walk) also drops stopwords before
// anything is materialized and stems the token in place; a raw walker
// (WalkRaw) yields the lowercased tokens as they are.
//
// The rest of the package collects from it: Tokenize (raw) and
// NormalizeTokens (normalized) copy each emitted token into one string;
// TokenOverlap compares two normalized streams without building either.
// The embedder (package embed) hashes features straight off a normalizing
// walker.
package textutil

import (
	"unicode"
	"unicode/utf8"
)

// stopwords is the small English stopword list applied by NormalizeTokens.
// It deliberately keeps domain-meaningful words ("first", "last", "average")
// out of the list because benchmark questions rely on them.
var stopwords = map[string]struct{}{
	"a": {}, "an": {}, "the": {}, "of": {}, "in": {}, "on": {}, "at": {},
	"to": {}, "for": {}, "and": {}, "or": {}, "is": {}, "are": {}, "was": {},
	"were": {}, "be": {}, "been": {}, "by": {}, "with": {}, "as": {},
	"that": {}, "this": {}, "these": {}, "those": {}, "it": {}, "its": {},
	"from": {}, "into": {}, "we": {}, "you": {}, "i": {}, "our": {},
	"your": {}, "me": {}, "my": {}, "do": {}, "does": {}, "did": {},
	"have": {}, "has": {}, "had": {}, "can": {}, "could": {}, "would": {},
	"should": {}, "will": {}, "what": {}, "which": {}, "who": {}, "how": {},
	"when": {}, "where": {}, "why": {}, "please": {}, "help": {},
}

// Walker yields the tokens of a text one at a time. The zero value yields
// nothing; build one with Walk or WalkRaw.
type Walker struct {
	text      string
	pos       int
	buf       []byte
	normalize bool
}

// Walk returns a walker over the normalized tokens of text: lowercased,
// stopwords dropped, stemmed. Tokens are built in buf's backing array,
// which grows onto the heap only for a token longer than cap(buf).
func Walk(text string, buf []byte) Walker {
	return Walker{text: text, buf: buf[:0], normalize: true}
}

// WalkRaw returns a walker over the lowercased tokens of text, with
// stopwords kept and nothing stemmed: the stream Tokenize collects.
func WalkRaw(text string, buf []byte) Walker {
	return Walker{text: text, buf: buf[:0]}
}

// Next returns the next token, or ok false at the end of the text. The
// bytes are valid until the following call.
func (w *Walker) Next() (tok []byte, ok bool) {
	for {
		tok, ok = w.nextRaw()
		if !ok || !w.normalize {
			return tok, ok
		}
		if _, stop := stopwords[string(tok)]; !stop {
			return stem(tok), true
		}
	}
}

// nextRaw lowercases the next run of letters and digits into w.buf.
func (w *Walker) nextRaw() ([]byte, bool) {
	b := w.buf[:0]
	s, i := w.text, w.pos
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			i++
			switch {
			case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
				b = append(b, c)
				continue
			case 'A' <= c && c <= 'Z':
				b = append(b, c+('a'-'A'))
				continue
			}
		} else {
			r, size := utf8.DecodeRuneInString(s[i:])
			i += size
			switch {
			case unicode.IsLetter(r):
				b = utf8.AppendRune(b, unicode.ToLower(r))
				continue
			case unicode.IsDigit(r):
				b = utf8.AppendRune(b, r)
				continue
			}
		}
		if len(b) > 0 {
			break
		}
	}
	// Only the position is stored back: writing b into *w would make the
	// caller's buffer escape. A buffer that grew for a long token is
	// dropped, and the next token starts over in the caller's buffer.
	w.pos = i
	return b, len(b) > 0
}

// tokenBuf is the stack buffer size the package's collectors give their
// walkers; longer tokens spill to the heap.
const tokenBuf = 64

// Tokenize splits text into lower-case word tokens. Letters and digits are
// kept; every other rune separates tokens. Underscores split identifiers so
// that column names like "k_ppm" yield ["k", "ppm"].
func Tokenize(text string) []string {
	var buf [tokenBuf]byte
	return collect(WalkRaw(text, buf[:]), nil)
}

// NormalizeTokens tokenizes, drops stopwords and stems, producing the token
// stream the BM25 index consumes. The result is never nil.
func NormalizeTokens(text string) []string {
	var buf [tokenBuf]byte
	return collect(Walk(text, buf[:]), []string{})
}

// collect copies every token w yields into its own string. A first pass
// counts them, so the result is allocated once at its exact size; empty
// returns none.
func collect(w Walker, none []string) []string {
	count := w
	n := 0
	for _, ok := count.Next(); ok; _, ok = count.Next() {
		n++
	}
	if n == 0 {
		return none
	}
	out := make([]string, 0, n)
	for tok, ok := w.Next(); ok; tok, ok = w.Next() {
		out = append(out, string(tok))
	}
	return out
}

// IsStopword reports whether tok is in the stopword list.
func IsStopword(tok string) bool {
	_, ok := stopwords[tok]
	return ok
}

// stem applies a light suffix stemmer (a truncated Porter variant) in
// place: plural "-ies"→"y", "-sses"→"ss", trailing "s" dropped, "-ing"/"-ed"
// dropped when the stem stays ≥3 bytes. It is intentionally conservative;
// recall matters more than linguistic purity for schema matching.
func stem(tok []byte) []byte {
	n := len(tok)
	switch {
	case n > 4 && hasSuffix(tok, "ies"):
		tok[n-3] = 'y'
		return tok[:n-2]
	case n > 5 && hasSuffix(tok, "sses"):
		return tok[:n-2]
	case n > 3 && hasSuffix(tok, "s") && !hasSuffix(tok, "ss") && !hasSuffix(tok, "us"):
		return tok[:n-1]
	}
	if n > 6 && hasSuffix(tok, "ing") {
		return tok[:n-3]
	}
	if n > 5 && hasSuffix(tok, "ed") {
		return tok[:n-2]
	}
	return tok
}

func hasSuffix(b []byte, suffix string) bool {
	return len(b) >= len(suffix) && string(b[len(b)-len(suffix):]) == suffix
}

// Jaccard computes the Jaccard similarity of two token multisets treated as
// sets. Empty inputs yield 0.
func Jaccard(a, b []string) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	sa := make(map[string]struct{}, len(a))
	for _, t := range a {
		sa[t] = struct{}{}
	}
	sb := make(map[string]struct{}, len(b))
	for _, t := range b {
		sb[t] = struct{}{}
	}
	inter := 0
	for t := range sa {
		if _, ok := sb[t]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Levenshtein computes the edit distance between two strings in O(len(a)·
// len(b)) time and O(min) space.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = minInt(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// Similarity maps Levenshtein distance into [0,1]: 1 means identical.
func Similarity(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := len([]rune(a)), len([]rune(b))
	longest := la
	if lb > longest {
		longest = lb
	}
	if longest == 0 {
		return 1
	}
	return 1 - float64(Levenshtein(a, b))/float64(longest)
}

// overlapSet is how many normalized tokens, and how many of their bytes,
// TokenOverlap holds on the stack for its first argument; a longer phrase
// spills to the heap.
const (
	overlapSet   = 16
	overlapBytes = 256
)

// TokenOverlap returns the fraction of a's normalized tokens found in b's
// normalized tokens; an asymmetric containment measure useful for matching a
// short query phrase against a longer description. Each of b's tokens is
// compared with each of a's, so the cost is the product of the two token
// counts.
func TokenOverlap(a, b string) float64 {
	var buf [tokenBuf]byte
	var arenaArr [overlapBytes]byte
	var endsArr [overlapSet]int
	var foundArr [overlapSet]bool
	arena, ends, found := arenaArr[:0], endsArr[:0], foundArr[:0]
	wa := Walk(a, buf[:])
	for tok, ok := wa.Next(); ok; tok, ok = wa.Next() {
		arena = append(arena, tok...)
		ends = append(ends, len(arena))
		found = append(found, false)
	}
	if len(ends) == 0 {
		return 0
	}
	wb := Walk(b, buf[:])
	for tok, ok := wb.Next(); ok; tok, ok = wb.Next() {
		start := 0
		for i, end := range ends {
			if string(arena[start:end]) == string(tok) {
				found[i] = true
			}
			start = end
		}
	}
	hit := 0
	for _, f := range found {
		if f {
			hit++
		}
	}
	return float64(hit) / float64(len(ends))
}

func minInt(xs ...int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
