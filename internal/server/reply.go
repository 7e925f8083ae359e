package server

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"pneuma"
)

// maxPooledReply caps the buffers replyBufs keeps. A reply that grew past it
// (a large k, or wide tables) is written and then dropped, so one outsized
// request does not pin its memory for the life of the process.
const maxPooledReply = 64 << 10

// replyBuf is the scratch of one search reply: out is the body, summary one
// document's rendered summary on its way into out.
type replyBuf struct {
	out, summary []byte
}

var replyBufs = sync.Pool{New: func() any { return new(replyBuf) }}

// writeSearchReply writes the 200 reply of GET /v1/search in one Write.
func writeSearchReply(w http.ResponseWriter, ds []pneuma.Document, degraded string) {
	b := replyBufs.Get().(*replyBuf)
	ok := b.appendSearchReply(ds, degraded)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if ok {
		w.Write(b.out)
	}
	if cap(b.out) <= maxPooledReply && cap(b.summary) <= maxPooledReply {
		replyBufs.Put(b)
	}
}

// appendSearchReply sets b.out to the reply body,
//
//	{"documents":[{"id":…,"kind":…,"title":…,"source":…,"score":…,"summary":…},…],"degraded":…}
//
// and a newline, with "degraded" left out when empty and each summary being
// the document's AppendSummary(…, 2). The bytes are those encoding/json's
// Encoder writes for the same fields, which FuzzSearchReply checks. Like that
// encoder, it reports false, leaving no body, when a score is NaN or
// infinite, which JSON cannot spell.
func (b *replyBuf) appendSearchReply(ds []pneuma.Document, degraded string) bool {
	out := append(b.out[:0], `{"documents":[`...)
	for i := range ds {
		d := &ds[i]
		if math.IsNaN(d.Score) || math.IsInf(d.Score, 0) {
			return false
		}
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, `{"id":`...)
		out = appendJSONString(out, d.ID)
		out = append(out, `,"kind":`...)
		out = appendJSONString(out, string(d.Kind))
		out = append(out, `,"title":`...)
		out = appendJSONString(out, d.Title)
		out = append(out, `,"source":`...)
		out = appendJSONString(out, d.Source)
		out = append(out, `,"score":`...)
		out = appendJSONFloat(out, d.Score)
		out = append(out, `,"summary":`...)
		b.summary = d.AppendSummary(b.summary[:0], 2)
		out = appendJSONString(out, b.summary)
		out = append(out, '}')
	}
	out = append(out, ']')
	if degraded != "" {
		out = append(out, `,"degraded":`...)
		out = appendJSONString(out, degraded)
	}
	b.out = append(out, "}\n"...)
	return true
}

// appendJSONFloat appends f as encoding/json writes a float64: the shortest
// 'f' form, the 'e' form below 1e-6 and from 1e21 up, and a one-digit
// negative exponent without its leading zero (1e-07 becomes 1e-7).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string the way encoding/json
// writes one with HTML escaping on, its default: `"` and `\` behind a
// backslash; \b, \f, \n, \r and \t by name and the other control bytes as
// \u00XX; the HTML specials <, > and & and the separators U+2028 and U+2029
// as the \u escape of their code point; and each byte that is not part of
// valid UTF-8 as the \u escape of U+FFFD.
func appendJSONString[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
