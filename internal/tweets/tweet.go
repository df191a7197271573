// Package tweets models the paper's Twitter pipeline: tweets carrying
// @mentions, a parser that extracts them, a builder that
// turns a tweet stream into the user-to-user interaction graph of Table
// III, and a synthetic corpus generator substituting for the Spinn3r feed —
// it emits the same structural mix the paper describes (broadcast trees,
// conversations, self references and noise) so every downstream analysis
// exercises the same code paths.
package tweets

import "strings"

// Tweet is one microblog message.
type Tweet struct {
	ID     int64
	Author string // handle without the @ prefix
	Text   string
	Week   int // ISO-ish week index, used by the volume analyses
}

// isHandleChar reports whether c may appear in a Twitter handle.
func isHandleChar(c byte) bool {
	return c == '_' ||
		(c >= 'a' && c <= 'z') ||
		(c >= 'A' && c <= 'Z') ||
		(c >= '0' && c <= '9')
}

// Mentions returns the handles mentioned in the text (lowercased, in
// order, duplicates preserved). An '@' must not be preceded by a handle
// character (user@example does not mention "example").
func Mentions(text string) []string {
	var out []string
	for i := 0; ; {
		lo, hi, _ := nextMention(text, i)
		if lo < 0 {
			return out
		}
		out = append(out, strings.ToLower(text[lo:hi]))
		i = hi
	}
}

// nextMention finds the first mention in text[i:] and returns its handle's
// span text[lo:hi] with the hash foldKey gives it, or lo = -1 when there
// is none. A mention is an '@' not preceded by a handle character and
// followed by at least one.
func nextMention(text string, i int) (lo, hi int, h uint32) {
	for {
		at := strings.IndexByte(text[i:], '@')
		if at < 0 {
			return -1, -1, 0
		}
		at += i
		i = at + 1
		if at > 0 && isHandleChar(text[at-1]) {
			continue
		}
		h = fnvOffset
		j := i
		for ; j < len(text) && isHandleChar(text[j]); j++ {
			h = (h ^ uint32(lowerByte(text[j]))) * fnvPrime
		}
		if j > i {
			return i, j, h
		}
	}
}

// IsRetweet reports whether the text follows the classic retweet
// convention, "RT @user ...".
func IsRetweet(text string) bool {
	t := strings.TrimSpace(text)
	return len(t) >= 4 && (strings.HasPrefix(t, "RT @") || strings.HasPrefix(t, "rt @"))
}

// FilterKeyword returns the tweets whose text contains any of the
// keywords, case-insensitively (as strings.ToLower folds both), modeling
// the paper's keyword harvests (flu, h1n1, #atlflood, ...). Keywords are
// matched as substrings, as a stream harvest would ("flu" matches
// "#swineflu"); an empty keyword matches nothing.
func FilterKeyword(ts []Tweet, keywords []string) []Tweet {
	lower := make([]string, 0, len(keywords))
	for _, k := range keywords {
		if k != "" {
			lower = append(lower, strings.ToLower(k))
		}
	}
	var out []Tweet
	for _, t := range ts {
		text := strings.ToLower(t.Text)
		for _, k := range lower {
			if strings.Contains(text, k) {
				out = append(out, t)
				break
			}
		}
	}
	return out
}

// FilterWeek returns the tweets within the week range [lo, hi].
func FilterWeek(ts []Tweet, lo, hi int) []Tweet {
	var out []Tweet
	for _, t := range ts {
		if t.Week >= lo && t.Week <= hi {
			out = append(out, t)
		}
	}
	return out
}
