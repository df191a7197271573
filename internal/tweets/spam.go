package tweets

import (
	"bytes"
	"strings"
	"unicode/utf8"
)

// The paper's harvests are explicitly "English, non-spam" streams. The
// synthetic corpus injects bait spam riding the trending hashtag; this
// filter removes it so the analysis pipelines consume the same clean
// stream the paper's did. Two signals are combined: bait phrasing with a
// link, and template reuse (near-identical texts posted many times).

// spamBait are phrases whose co-occurrence with a link marks bait spam.
var spamBait = []string{"free followers", "click http", "win a free", "work from home"}

// FilterSpam removes likely spam from a stream: tweets with a link and
// bait phrasing, and linked tweets whose normalized template recurs at
// least dupThreshold times (template spam evades phrase lists but not
// repetition). dupThreshold <= 0 uses 5. Links, bait phrases and
// templates are matched case-insensitively, as strings.ToLower would
// fold them.
//
// Each tweet is classified once: a tweet without a link is kept, and a
// linked one is either bait or the index of its template, whose count is
// then compared with dupThreshold without looking at the text again.
func FilterSpam(ts []Tweet, dupThreshold int) []Tweet {
	if dupThreshold <= 0 {
		dupThreshold = 5
	}
	const unlinked, bait = -1, -2
	class := make([]int32, len(ts))
	templates := make(map[string]int32)
	var counts []int
	var key, lower []byte
	for i, t := range ts {
		class[i] = unlinked
		if !hasLink(t.Text) {
			continue
		}
		key = appendTemplate(key[:0], t.Text)
		id, ok := templates[string(key)]
		if !ok {
			id = int32(len(counts))
			templates[string(key)] = id
			counts = append(counts, 0)
		}
		counts[id]++
		class[i] = id
		lower = appendLower(lower[:0], t.Text)
		for _, b := range spamBait {
			if bytes.Contains(lower, []byte(b)) {
				class[i] = bait
				break
			}
		}
	}
	out := make([]Tweet, 0, len(ts))
	for i, t := range ts {
		if c := class[i]; c == unlinked || c >= 0 && counts[c] < dupThreshold {
			out = append(out, t)
		}
	}
	return out
}

// hasLink reports whether the text holds "http://" or "https://" in any
// case. ASCII folding is exact here: the only non-ASCII runes that lower
// to ASCII are U+0130 and U+212A, which lower to 'i' and 'k'.
func hasLink(text string) bool {
	for i := 0; ; {
		j := strings.Index(text[i:], "://")
		if j < 0 {
			return false
		}
		i += j
		if hasPrefixFold(text, i-4, "http") || hasPrefixFold(text, i-5, "https") {
			return true
		}
		i += 3
	}
}

// appendTemplate appends text's template to dst, collapsing the variable
// parts of templated spam: a mention becomes '@', a link (up to the next
// space) "URL" and a digit run '#', so repeated templates compare equal.
// Other bytes are kept, ASCII letters lowered.
func appendTemplate(dst []byte, text string) []byte {
	i := 0
	for i < len(text) {
		switch {
		case text[i] == '@':
			dst = append(dst, '@')
			i++
			for i < len(text) && isHandleChar(text[i]) {
				i++
			}
		case hasPrefixFold(text, i, "http://"), hasPrefixFold(text, i, "https://"):
			dst = append(dst, "URL"...)
			for i < len(text) && text[i] != ' ' {
				i++
			}
		case text[i] >= '0' && text[i] <= '9':
			dst = append(dst, '#')
			for i < len(text) && text[i] >= '0' && text[i] <= '9' {
				i++
			}
		default:
			dst = append(dst, lowerByte(text[i]))
			i++
		}
	}
	return dst
}

// appendLower appends strings.ToLower(text) to dst. ASCII text is lowered
// a byte at a time; only text holding a byte >= 0x80 pays for Unicode
// case mapping.
func appendLower(dst []byte, text string) []byte {
	n := len(dst)
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c >= utf8.RuneSelf {
			return append(dst[:n], strings.ToLower(text)...)
		}
		dst = append(dst, lowerByte(c))
	}
	return dst
}

// hasPrefixFold reports whether s[i:] starts with the lower-case ASCII
// prefix, ASCII letters of s compared in either case. A negative i is no
// match.
func hasPrefixFold(s string, i int, prefix string) bool {
	if i < 0 || len(s)-i < len(prefix) {
		return false
	}
	for k := 0; k < len(prefix); k++ {
		if lowerByte(s[i+k]) != prefix[k] {
			return false
		}
	}
	return true
}

func lowerByte(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}
