package llm

import (
	"strconv"
	"strings"

	"pneuma/internal/embed"
	"pneuma/internal/textutil"
	"pneuma/internal/value"
)

// This file is the SimModel's natural-language-understanding core: parsing
// user utterances into Intent structures, grounded against the vocabulary
// of retrieved documents. Utterances follow the controlled grammar the user
// simulator and question generators emit; a hosted LLM slotted in through
// the Model interface would handle open language the same way these rules
// handle the closed grammar.

// nluEmbedder is shared by all similarity scoring in the skills.
var nluEmbedder = embed.New()

// Vocab is the grounding vocabulary extracted from retrieved documents.
type Vocab struct {
	Tables []TableInfo
}

// VocabFromDocs collects the table DTOs out of a retrieved document list.
func VocabFromDocs(ds []DocInfo) Vocab {
	var v Vocab
	for _, d := range ds {
		if d.Table != nil {
			v.Tables = append(v.Tables, *d.Table)
		}
	}
	return v
}

// aggregateKeywords maps utterance phrases to SQL aggregates. Multi-word
// phrases are matched before single words.
var aggregateKeywords = []struct {
	phrase string
	agg    string
}{
	{"standard deviation", "STDDEV"},
	{"how many", "COUNT"},
	{"number of", "COUNT"},
	{"average", "AVG"},
	{"mean", "AVG"},
	{"total", "SUM"},
	{"sum", "SUM"},
	{"count", "COUNT"},
	{"highest", "MAX"},
	{"maximum", "MAX"},
	{"max", "MAX"},
	{"lowest", "MIN"},
	{"minimum", "MIN"},
	{"min", "MIN"},
	{"median", "MEDIAN"},
}

// measureBoundary tokens terminate a measure phrase.
var measureBoundary = map[string]struct{}{
	"from": {}, "for": {}, "in": {}, "of": {}, "across": {}, "at": {},
	"between": {}, "recorded": {}, "over": {}, "where": {}, "during": {},
	"measurements": {}, "values": {}, "levels": {}, "readings": {},
	"assume": {}, "round": {}, "the": {}, "and": {}, "since": {}, "was": {},
	"per": {}, "by": {},
}

// overviewMarkers signal an exploratory, non-specific utterance.
var overviewMarkers = []string{
	"overview", "what variables", "what data", "what kind of data",
	"explore", "dive into", "tell me about", "get a sense", "available data",
	"what do we have", "different variables",
}

// ParseUtterance extracts the partial intent expressed by one utterance.
// Parsing is grounded: filter values only become filters when they match a
// sample value of some column in the vocabulary (or follow an explicit
// location/site marker).
func ParseUtterance(text string, vocab Vocab) Intent {
	intent := Intent{RoundTo: -1}
	lower := strings.ToLower(text)

	for _, m := range overviewMarkers {
		if strings.Contains(lower, m) {
			intent.WantOverview = true
			break
		}
	}

	// Aggregate + measure phrase. Keywords match at word boundaries only
	// ("assume" must not match "sum").
	for _, kw := range aggregateKeywords {
		idx := indexOfWord(lower, kw.phrase)
		if idx < 0 {
			continue
		}
		intent.Aggregate = kw.agg
		intent.MeasurePhrase = captureMeasurePhrase(lower[idx+len(kw.phrase):])
		break
	}
	// "interested in the X measurements", "data about X", "focus on X".
	if intent.MeasurePhrase == "" {
		for _, marker := range []string{
			"interested in", "data about", "data on", "anything on",
			"something on", "measurements exist around", "focus on",
			"look at", "care about",
		} {
			idx := indexOfWord(lower, marker)
			if idx < 0 {
				continue
			}
			phrase := captureMeasurePhrase(lower[idx+len(marker):])
			if phrase != "" && !temporalPhrase(phrase) {
				intent.MeasurePhrase = phrase
				break
			}
		}
	}

	// Temporal range: "between 1900 and 1950", "from 1900 to 1950",
	// "since 1980", "in 1975".
	intent.YearFrom, intent.YearTo = parseYearRange(lower)

	// Derived computations.
	if strings.Contains(lower, "interpolat") {
		intent.Interpolate = true
	}
	if strings.Contains(lower, "first and last") || strings.Contains(lower, "first and the last") {
		intent.FirstLast = true
	}
	if strings.Contains(lower, "relative to the previous") ||
		strings.Contains(lower, "compared to the previous") {
		intent.RelativePrev = true
	}

	// Rounding: "round ... to N decimal places".
	if n, ok := parseRounding(lower); ok {
		intent.RoundTo = n
	}

	// Filters, grounded against sample values.
	intent.Filters = parseFilters(text, vocab)

	// A "measure" phrase that is really a filter restatement ("focus on
	// the Malta region") must not shadow the actual measure.
	if intent.MeasurePhrase != "" {
		for _, f := range intent.Filters {
			if containsWord(intent.MeasurePhrase, f.Value) {
				intent.MeasurePhrase = ""
				break
			}
		}
	}

	// Topic: content words of the first sentence (used for retrieval).
	intent.Topic = topicOf(text)
	return intent
}

// capitalizedStop are capitalized grammar/discourse words that are never
// filter values.
var capitalizedStop = map[string]struct{}{
	"what": {}, "which": {}, "could": {}, "can": {}, "please": {},
	"round": {}, "assume": {}, "provide": {}, "that": {}, "this": {},
	"the": {}, "i": {}, "im": {}, "great": {}, "hmm": {}, "do": {},
	"does": {}, "is": {}, "are": {}, "how": {}, "a": {}, "an": {},
	"it": {}, "let": {}, "lets": {}, "some": {}, "only": {}, "never": {},
	"maybe": {}, "restrict": {}, "focus": {}, "tell": {}, "show": {},
	"note": {}, "thanks": {}, "ok": {}, "and": {}, "of": {}, "in": {},
}

// indexOfWord finds phrase in s at a word boundary (non-letter on both
// sides), or -1.
func indexOfWord(s, phrase string) int {
	from := 0
	for {
		idx := strings.Index(s[from:], phrase)
		if idx < 0 {
			return -1
		}
		idx += from
		beforeOK := idx == 0 || !isLetter(s[idx-1])
		end := idx + len(phrase)
		afterOK := end >= len(s) || !isLetter(s[end])
		if beforeOK && afterOK {
			return idx
		}
		from = idx + 1
	}
}

func isLetter(b byte) bool {
	return (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

// temporalPhrase guards the measure markers against temporal/derived
// restatements ("I care about the first and last time ...").
func temporalPhrase(phrase string) bool {
	switch strings.Fields(phrase)[0] {
	case "first", "last", "missing", "value", "values", "time", "times", "year", "years":
		return true
	}
	return false
}

func isCapStop(clean string) bool {
	_, ok := capitalizedStop[strings.ToLower(clean)]
	return ok
}

// endsSentence reports whether a raw token terminates a sentence.
func endsSentence(raw string) bool {
	return strings.HasSuffix(raw, ".") || strings.HasSuffix(raw, "?") || strings.HasSuffix(raw, "!")
}

// MergeIntent folds a later partial intent into the cumulative one. Later
// information wins for scalar fields; filters accumulate (deduplicated by
// value).
func MergeIntent(acc, next Intent) Intent {
	if next.Topic != "" {
		if acc.Topic == "" {
			acc.Topic = next.Topic
		} else if !strings.Contains(acc.Topic, next.Topic) {
			acc.Topic = acc.Topic + " " + next.Topic
		}
	}
	if next.MeasurePhrase != "" {
		acc.MeasurePhrase = next.MeasurePhrase
	}
	if next.Aggregate != "" {
		acc.Aggregate = next.Aggregate
	}
	if next.YearFrom != 0 {
		acc.YearFrom = next.YearFrom
	}
	if next.YearTo != 0 {
		acc.YearTo = next.YearTo
	}
	if next.FirstLast {
		acc.FirstLast = true
	}
	if next.Interpolate {
		acc.Interpolate = true
	}
	if next.RelativePrev {
		acc.RelativePrev = true
	}
	if next.RoundTo >= 0 {
		acc.RoundTo = next.RoundTo
	}
	// Overview flag reflects only the latest utterance: once the user asks
	// for something specific, the need is no longer exploratory.
	acc.WantOverview = next.WantOverview && acc.MeasurePhrase == "" && next.MeasurePhrase == ""
	for _, f := range next.Filters {
		replaced := false
		for i, g := range acc.Filters {
			if strings.EqualFold(g.Value, f.Value) {
				replaced = true // same constraint restated
				break
			}
			// A new value for the same attribute REPLACES the old filter —
			// "actually, the Gozo region" revises "the Malta region" rather
			// than conjoining with it.
			sameCol := f.Column != "" && strings.EqualFold(f.Column, g.Column)
			samePhrase := f.Column == "" && g.Column == "" &&
				f.ColumnPhrase != "" && strings.EqualFold(f.ColumnPhrase, g.ColumnPhrase)
			if sameCol || samePhrase {
				acc.Filters[i] = f
				replaced = true
				break
			}
		}
		if !replaced {
			acc.Filters = append(acc.Filters, f)
		}
	}
	return acc
}

// ParseAll parses and merges a whole conversation's user messages — the
// stateless "re-read the conversation" behaviour of an LLM.
func ParseAll(messages []string, vocab Vocab) Intent {
	acc := Intent{RoundTo: -1}
	for _, m := range messages {
		acc = MergeIntent(acc, ParseUtterance(m, vocab))
	}
	return acc
}

func captureMeasurePhrase(rest string) string {
	tokens := strings.Fields(rest)
	var phrase []string
	for _, tok := range tokens {
		clean := strings.Trim(tok, ".,;:?!()'\"")
		lc := strings.ToLower(clean)
		if _, stop := measureBoundary[lc]; stop {
			// A leading "of"/"the" is glue, not a boundary: "average of the
			// nitrate concentration" must still capture the phrase.
			if (lc == "the" || lc == "of") && len(phrase) == 0 {
				continue
			}
			break
		}
		if clean == "" {
			break
		}
		phrase = append(phrase, clean)
		if len(phrase) >= 4 {
			break
		}
	}
	return strings.Join(phrase, " ")
}

func parseYearRange(lower string) (from, to int) {
	tokens := strings.Fields(lower)
	clean := make([]string, len(tokens))
	for i, t := range tokens {
		clean[i] = strings.Trim(t, ".,;:?!()'\"")
	}
	isYear := func(s string) (int, bool) {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1500 || n > 2100 {
			return 0, false
		}
		return n, true
	}
	for i := 0; i < len(clean); i++ {
		switch clean[i] {
		case "between":
			if i+3 < len(clean) && clean[i+2] == "and" {
				a, aok := isYear(clean[i+1])
				b, bok := isYear(clean[i+3])
				if aok && bok {
					return a, b
				}
			}
		case "from":
			if i+3 < len(clean) && (clean[i+2] == "to" || clean[i+2] == "until") {
				a, aok := isYear(clean[i+1])
				b, bok := isYear(clean[i+3])
				if aok && bok {
					return a, b
				}
			}
		case "since", "after":
			if i+1 < len(clean) {
				if a, ok := isYear(clean[i+1]); ok {
					return a, 0
				}
			}
		case "before":
			if i+1 < len(clean) {
				if b, ok := isYear(clean[i+1]); ok {
					return 0, b
				}
			}
		case "in", "during":
			if i+1 < len(clean) {
				if a, ok := isYear(clean[i+1]); ok {
					return a, a
				}
			}
		}
	}
	return 0, 0
}

func parseRounding(lower string) (int, bool) {
	idx := strings.Index(lower, "decimal place")
	if idx < 0 {
		return 0, false
	}
	// Walk backwards from the marker to the nearest integer token.
	head := strings.Fields(lower[:idx])
	for i := len(head) - 1; i >= 0 && i >= len(head)-4; i-- {
		tok := strings.Trim(head[i], ".,;:?!()'\"")
		if n, err := strconv.Atoi(tok); err == nil && n >= 0 && n <= 12 {
			return n, true
		}
	}
	return 0, false
}

// locationMarkers introduce a filter value positionally: "the Malta area",
// "at station Alpha", "site X".
var locationMarkers = map[string]struct{}{
	"area": {}, "region": {}, "site": {}, "station": {}, "location": {},
	"zone": {}, "country": {}, "suppliers": {}, "supplier": {}, "basin": {},
	"sector": {}, "category": {},
}

// parseFilters grounds filter values: a token (or bigram) becomes a filter
// when it matches a sample value of a string column in the vocabulary.
// Tokens adjacent to a location marker are accepted even without a sample
// match, with the column resolved by the marker word.
func parseFilters(text string, vocab Vocab) []FilterSpec {
	var out []FilterSpec
	seen := map[string]struct{}{}
	add := func(f FilterSpec) {
		key := strings.ToLower(f.Value)
		if _, dup := seen[key]; dup || f.Value == "" {
			return
		}
		// Word subsumption: "Point" after "Alder Point" is the same entity,
		// not a second filter.
		for _, g := range out {
			if containsWord(g.Value, f.Value) {
				return
			}
			if containsWord(f.Value, g.Value) {
				return
			}
		}
		seen[key] = struct{}{}
		out = append(out, f)
	}

	words := strings.Fields(text)
	clean := make([]string, len(words))
	for i, w := range words {
		clean[i] = strings.Trim(w, ".,;:?!()'\"")
	}

	// candidate reports whether position j can be a filter-value token:
	// capitalized, not a grammar word, not sentence-initial.
	candidate := func(j int) bool {
		if j < 0 || j >= len(clean) || clean[j] == "" {
			return false
		}
		if !isCapitalized(clean[j]) || isCapStop(clean[j]) {
			return false
		}
		if j == 0 || endsSentence(words[j-1]) {
			return false
		}
		return true
	}

	// Pass 1: sample-value grounding for capitalized tokens and bigrams.
	for i := range clean {
		if !candidate(i) {
			continue
		}
		// Try bigram first ("Alder Point"), then unigram.
		if i+1 < len(clean) && isCapitalized(clean[i+1]) && !isCapStop(clean[i+1]) {
			bigram := clean[i] + " " + clean[i+1]
			if col, ok := valueColumn(vocab, bigram); ok {
				add(FilterSpec{Column: col, Value: bigram})
				continue
			}
		}
		if col, ok := valueColumn(vocab, clean[i]); ok {
			add(FilterSpec{Column: col, Value: clean[i]})
		}
	}

	// Pass 2: location-marker adjacency: "the <X> area", "station <X>".
	for i := range clean {
		w := strings.ToLower(clean[i])
		if _, ok := locationMarkers[w]; !ok {
			continue
		}
		// marker after value: "the Malta area"
		if candidate(i - 1) {
			// Extend to a bigram value when the two preceding tokens are
			// both capitalized ("the Coastal Strip region").
			if candidate(i-2) && i >= 2 {
				add(FilterSpec{ColumnPhrase: w, Value: clean[i-2] + " " + clean[i-1]})
			} else {
				add(FilterSpec{ColumnPhrase: w, Value: clean[i-1]})
			}
		}
		// marker before value: "station Alpha" — but not across a sentence
		// boundary ("...region. Could you...").
		if i+1 < len(clean) && candidate(i+1) && !endsSentence(words[i]) {
			add(FilterSpec{ColumnPhrase: w, Value: clean[i+1]})
		}
	}
	return out
}

func isCapitalized(w string) bool {
	if w == "" {
		return false
	}
	c := w[0]
	return 'A' <= c && c <= 'Z'
}

// valueColumn finds the string column whose sample values contain v.
func valueColumn(vocab Vocab, v string) (string, bool) {
	for _, t := range vocab.Tables {
		for _, c := range t.Columns {
			if c.Type != "varchar" {
				continue
			}
			for _, s := range c.Samples {
				if strings.EqualFold(s, v) {
					return c.Name, true
				}
			}
		}
	}
	return "", false
}

// topicOf extracts retrieval-worthy content words from an utterance.
func topicOf(text string) string {
	toks := textutil.NormalizeTokens(text)
	var keep []string
	for _, t := range toks {
		if len(t) <= 2 {
			continue
		}
		switch t {
		case "curiou", "interest", "overview", "different", "variable",
			"could", "help", "want", "would", "like", "know", "please",
			"explore", "dive", "historical", "past", "get", "answer",
			"round", "decimal", "place", "assume", "record", "specific":
			continue
		}
		keep = append(keep, t)
		if len(keep) >= 8 {
			break
		}
	}
	return strings.Join(keep, " ")
}

// columnMatch scores how well a column matches a measure phrase, blending
// token containment over name+description+unit with embedding similarity.
// The name goes in as is: "_" separates tokens, so "k_ppm" matches as
// "k ppm".
func columnMatch(phrase string, c ColumnInfo) float64 {
	if phrase == "" {
		return 0
	}
	colText := c.Name + " " + c.Description + " " + c.Unit
	overlap := textutil.TokenOverlap(phrase, colText)
	sim := float64(nluEmbedder.Similarity(phrase, colText))
	return 0.65*overlap + 0.35*sim
}

// ResolveMeasure finds the best-matching (table, column) for a measure
// phrase. The conversation topic breaks ties between equally matching
// columns in different tables ("mass" in an artifacts conversation means
// artifacts.mass_g, not radiocarbon_dates.sample_mass_mg). ambiguous is
// true when two columns from different tables still tie within 0.05 — the
// signal for a clarifying question.
func ResolveMeasure(vocab Vocab, phrase, topic string) (tbl TableInfo, col ColumnInfo, score float64, ambiguous bool) {
	type cand struct {
		t TableInfo
		c ColumnInfo
		s float64
	}
	var best, second cand
	for _, t := range vocab.Tables {
		topicBoost := 0.0
		if topic != "" {
			topicBoost = 0.35 * textutil.TokenOverlap(topic, t.Name+" "+t.Description)
		}
		for _, c := range t.Columns {
			// Measures are numeric, or text columns whose samples are
			// mostly numeric (dirty numeric columns awaiting coercion).
			if c.Type != "double" && c.Type != "bigint" && !mostlyNumericSamples(c) {
				continue
			}
			s := columnMatch(phrase, c)
			if s > 0 {
				s += topicBoost
			}
			if s > best.s {
				second = best
				best = cand{t, c, s}
			} else if s > second.s {
				second = cand{t, c, s}
			}
		}
	}
	const threshold = 0.30
	if best.s < threshold {
		return TableInfo{}, ColumnInfo{}, best.s, false
	}
	amb := second.s > 0 && best.s-second.s < 0.05 && second.t.Name != best.t.Name
	return best.t, best.c, best.s, amb
}

// ResolveFilterColumn resolves a filter against a table, returning the
// physical column and the canonical value to filter on. Resolution order:
// the pre-grounded column, an exact sample-value hit, a fuzzy sample-value
// hit (so "Maltese" canonicalizes to the stored value "Malta"), and finally
// a column-phrase match ("area", "station") against names and descriptions.
func ResolveFilterColumn(t TableInfo, f FilterSpec) (column, canonical string, ok bool) {
	if f.Column != "" {
		if _, found := findCol(t, f.Column); found {
			return f.Column, f.Value, true
		}
	}
	bestPhrase, bestPhraseScore := "", 0.0
	bestFuzzyCol, bestFuzzyVal, bestFuzzyScore := "", "", 0.0
	for _, c := range t.Columns {
		if c.Type != "varchar" {
			continue
		}
		for _, s := range c.Samples {
			if strings.EqualFold(s, f.Value) {
				return c.Name, s, true
			}
			if sim := valueSimilarity(s, f.Value); sim >= 0.7 && sim > bestFuzzyScore {
				bestFuzzyCol, bestFuzzyVal, bestFuzzyScore = c.Name, s, sim
			}
		}
		if f.ColumnPhrase != "" {
			if s := columnPhraseMatch(f.ColumnPhrase, c); s > bestPhraseScore {
				bestPhrase, bestPhraseScore = c.Name, s
			}
		}
	}
	if bestFuzzyScore > 0 {
		return bestFuzzyCol, bestFuzzyVal, true
	}
	if bestPhraseScore >= 0.3 {
		return bestPhrase, f.Value, true
	}
	return "", "", false
}

// valueSimilarity scores how likely two value strings denote the same
// entity: the max of normalized edit similarity and a prefix score that
// handles demonyms and inflections ("Maltese" → "Malta").
func valueSimilarity(a, b string) float64 {
	la, lb := strings.ToLower(a), strings.ToLower(b)
	sim := textutil.Similarity(la, lb)
	cp := commonPrefixLen(la, lb)
	minLen := len(la)
	if len(lb) < minLen {
		minLen = len(lb)
	}
	if cp >= 4 && minLen > 0 {
		if p := float64(cp) / float64(minLen); p > sim {
			sim = p
		}
	}
	return sim
}

func commonPrefixLen(a, b string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// containsWord reports whether needle appears as a whole word sequence
// inside hay (case-insensitive).
func containsWord(hay, needle string) bool {
	h := " " + strings.ToLower(hay) + " "
	n := " " + strings.ToLower(needle) + " "
	return strings.Contains(h, n)
}

func columnPhraseMatch(phrase string, c ColumnInfo) float64 {
	colText := c.Name + " " + c.Description
	overlap := textutil.TokenOverlap(phrase, colText)
	sim := float64(nluEmbedder.Similarity(phrase, colText))
	if overlap > sim {
		return overlap
	}
	return sim
}

// mostlyNumericSamples reports whether a varchar column's samples are
// predominantly parseable numbers — a dirty numeric column. AsFloat turns
// words away before strconv.ParseFloat, which would allocate an error for
// each of them.
func mostlyNumericSamples(c ColumnInfo) bool {
	if c.Type != "varchar" || len(c.Samples) == 0 {
		return false
	}
	numeric := 0
	for _, s := range c.Samples {
		if _, ok := value.String(s).AsFloat(); ok {
			numeric++
		}
	}
	return numeric*2 > len(c.Samples)
}

func findCol(t TableInfo, name string) (ColumnInfo, bool) {
	for _, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return c, true
		}
	}
	return ColumnInfo{}, false
}

// findTimeColumn locates the temporal column of a table: a timestamp-typed
// column, or a numeric column named like a year.
func findTimeColumn(t TableInfo) (ColumnInfo, bool) {
	for _, c := range t.Columns {
		if c.Type == "timestamp" {
			return c, true
		}
	}
	for _, c := range t.Columns {
		lc := strings.ToLower(c.Name)
		if strings.Contains(lc, "year") || strings.Contains(lc, "date") || strings.Contains(lc, "time") {
			return c, true
		}
	}
	return ColumnInfo{}, false
}
