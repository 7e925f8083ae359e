package llm

import "unicode/utf8"

// EstimateTokens approximates the BPE token count of text. The estimator
// follows the common ~4-characters-per-token heuristic with a per-word
// floor: every whitespace-separated word costs at least one token, and
// longer words cost ceil(len/4), len being the UTF-8 length of the word's
// runes as range decodes them (an invalid byte is U+FFFD, 3 bytes). This is
// deterministic and close enough to real tokenizers for the cost shapes
// Table 2 reports.
func EstimateTokens(text string) int {
	var c tokenCounter
	countPart(&c, text)
	return c.total()
}

// tokenCounter is EstimateTokens over a text handed over in parts: it
// carries the open word's byte length, and the bytes of a rune a part
// ends inside, from one part to the next, so a text's count does not
// depend on where it is split. Request.Tokens counts a prompt this way
// without building it.
type tokenCounter struct {
	tokens int
	word   int // byte length of the open word
	tail   [utf8.UTFMax]byte
	ntail  int // bytes of an unfinished rune the last part ended in
}

// countPart counts the next part of the text. It is the one counting loop:
// a string part and a payload's []byte are walked in place, never copied.
func countPart[T string | []byte](c *tokenCounter, s T) {
	for i := 0; i < len(s); {
		if c.ntail == 0 && s[i] < utf8.RuneSelf {
			switch s[i] {
			case ' ', '\n', '\t', '\r':
				c.endWord()
			default:
				c.word++
			}
			i++
			continue
		}
		// A multi-byte rune starts in the carried tail or at s[i]. Decode
		// it from the at most four bytes range would read there.
		buf := c.tail
		n := c.ntail + copy(buf[c.ntail:], s[i:])
		if !utf8.FullRune(buf[:n]) {
			// s ends inside the rune: only the next part can finish it.
			c.tail, c.ntail = buf, n
			return
		}
		r, w := utf8.DecodeRune(buf[:n])
		c.word += utf8.RuneLen(r)
		if w < c.ntail {
			// The carried lead byte was invalid: the rest of the tail is
			// decoded on its own next.
			c.ntail = copy(c.tail[:], c.tail[w:c.ntail])
			continue
		}
		i += w - c.ntail
		c.ntail = 0
	}
}

// endWord bills the open word, if any: ceil(len/4) tokens, at least one.
func (c *tokenCounter) endWord() {
	if c.word > 0 {
		c.tokens += (c.word + 3) / 4
		c.word = 0
	}
}

// total ends the text and returns its count. Each byte of a rune the text
// ends inside decodes as U+FFFD on its own.
func (c *tokenCounter) total() int {
	c.word += c.ntail * utf8.RuneLen(utf8.RuneError)
	c.ntail = 0
	c.endWord()
	return c.tokens
}
